// ResultCache: hit/miss/eviction, torn-write safety (corrupt and truncated
// entries fall back to recompute, never crash), and concurrent writers
// sharing one directory never tearing each other's entries.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pic/config.hpp"
#include "pic/result_io.hpp"
#include "sweep/cache.hpp"

namespace picpar::sweep {
namespace {

namespace fs = std::filesystem;

class CacheTest : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("picpar_cache_" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

/// Distinct fingerprints for test entries (16 lowercase hex).
std::string fp(unsigned i) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016x", i);
  return std::string(buf, 16);
}

pic::PicResult result_with_total(double total) {
  pic::PicResult r;
  r.total_seconds = total;
  r.final_particles = 1234;
  return r;
}

std::string entry_file(const std::string& dir, const std::string& f) {
  return (fs::path(dir) / (f + ".entry")).string();
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

void spew(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
}

TEST_F(CacheTest, MissThenStoreThenHit) {
  ResultCache cache(dir_);
  pic::PicResult out;
  EXPECT_EQ(cache.load(fp(1), out), CacheLoad::kMiss);
  EXPECT_EQ(cache.entries(), 0u);

  ASSERT_TRUE(cache.store(fp(1), "params=demo\n", result_with_total(2.5)));
  EXPECT_EQ(cache.load(fp(1), out), CacheLoad::kHit);
  EXPECT_EQ(out.total_seconds, 2.5);
  EXPECT_EQ(out.final_particles, 1234u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.params_text(fp(1)), "params=demo\n");
  EXPECT_EQ(cache.fingerprints(), std::vector<std::string>{fp(1)});
}

TEST_F(CacheTest, StoreIsLastWriterWins) {
  ResultCache cache(dir_);
  ASSERT_TRUE(cache.store(fp(1), "p\n", result_with_total(1.0)));
  ASSERT_TRUE(cache.store(fp(1), "p\n", result_with_total(7.0)));
  pic::PicResult out;
  ASSERT_EQ(cache.load(fp(1), out), CacheLoad::kHit);
  EXPECT_EQ(out.total_seconds, 7.0);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST_F(CacheTest, RejectsBadFingerprints) {
  ResultCache cache(dir_);
  pic::PicResult out;
  EXPECT_FALSE(cache.store("short", "p\n", out));
  EXPECT_FALSE(cache.store("../../../etc/passwd", "p\n", out));
  EXPECT_FALSE(cache.store("ABCDEF0123456789", "p\n", out));  // uppercase
}

TEST_F(CacheTest, TruncatedEntryIsCorruptNotCrash) {
  ResultCache cache(dir_);
  ASSERT_TRUE(cache.store(fp(1), "p\n", result_with_total(1.0)));
  const std::string path = entry_file(dir_, fp(1));
  const std::string full = slurp(path);

  // Every truncation point — including mid-seal — must read as corrupt.
  for (const std::size_t cut :
       {std::size_t{0}, full.size() / 4, full.size() / 2, full.size() - 10,
        full.size() - 1}) {
    spew(path, full.substr(0, cut));
    pic::PicResult out;
    EXPECT_EQ(cache.load(fp(1), out), CacheLoad::kCorrupt) << "cut " << cut;
  }
  spew(path, full);
  pic::PicResult out;
  EXPECT_EQ(cache.load(fp(1), out), CacheLoad::kHit);
}

TEST_F(CacheTest, FlippedByteFailsTheSeal) {
  ResultCache cache(dir_);
  ASSERT_TRUE(cache.store(fp(1), "p\n", result_with_total(1.0)));
  const std::string path = entry_file(dir_, fp(1));
  const std::string full = slurp(path);
  for (const std::size_t at :
       {std::size_t{0}, full.size() / 3, full.size() / 2, full.size() - 2}) {
    std::string bad = full;
    bad[at] = bad[at] == 'x' ? 'y' : 'x';
    spew(path, bad);
    pic::PicResult out;
    EXPECT_EQ(cache.load(fp(1), out), CacheLoad::kCorrupt) << "byte " << at;
  }
}

TEST_F(CacheTest, WrongFingerprintEchoIsCorrupt) {
  ResultCache cache(dir_);
  ASSERT_TRUE(cache.store(fp(1), "p\n", result_with_total(1.0)));
  // A validly sealed entry copied under the wrong name must not hit.
  fs::copy_file(entry_file(dir_, fp(1)), entry_file(dir_, fp(2)));
  pic::PicResult out;
  EXPECT_EQ(cache.load(fp(2), out), CacheLoad::kCorrupt);
}

TEST_F(CacheTest, TrimEvictsOldestFirst) {
  ResultCache cache(dir_);
  for (unsigned i = 0; i < 5; ++i)
    ASSERT_TRUE(cache.store(fp(i), "p\n", result_with_total(i)));
  // Pin a strictly increasing mtime order (filesystems may round to the
  // same tick when stores are fast).
  const auto base = fs::last_write_time(entry_file(dir_, fp(0)));
  for (unsigned i = 0; i < 5; ++i)
    fs::last_write_time(entry_file(dir_, fp(i)),
                        base + std::chrono::seconds(i));

  EXPECT_EQ(cache.trim(10), 0u);
  EXPECT_EQ(cache.entries(), 5u);
  EXPECT_EQ(cache.trim(2), 3u);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.fingerprints(), (std::vector<std::string>{fp(3), fp(4)}));
}

TEST_F(CacheTest, TrimTieBreaksByName) {
  ResultCache cache(dir_);
  for (unsigned i = 0; i < 4; ++i)
    ASSERT_TRUE(cache.store(fp(i), "p\n", result_with_total(i)));
  const auto base = fs::last_write_time(entry_file(dir_, fp(0)));
  for (unsigned i = 0; i < 4; ++i)
    fs::last_write_time(entry_file(dir_, fp(i)), base);  // all equal
  EXPECT_EQ(cache.trim(2), 2u);
  EXPECT_EQ(cache.fingerprints(), (std::vector<std::string>{fp(2), fp(3)}));
}

TEST_F(CacheTest, TrimEvictsDeadEntriesBeforeLiveOnes) {
  // A live entry, then two newer dead ones: an entry of an older canonical
  // version and one whose seal no longer holds. Trimming to one keeps the
  // live entry although it is the oldest.
  ResultCache cache(dir_);
  pic::PicParams params;
  ASSERT_TRUE(cache.store(fp(0), params.canonical(), result_with_total(0.0)));
  ASSERT_TRUE(cache.store(fp(1), "picpar-params=3\ngrid.nx=64\n",
                          result_with_total(1.0)));
  ASSERT_TRUE(cache.store(fp(2), params.canonical(), result_with_total(2.0)));
  const std::string torn = entry_file(dir_, fp(2));
  std::string bad = slurp(torn);
  bad[bad.size() / 2] = bad[bad.size() / 2] == 'x' ? 'y' : 'x';
  spew(torn, bad);
  const auto base = fs::last_write_time(entry_file(dir_, fp(0)));
  for (unsigned i = 0; i < 3; ++i)
    fs::last_write_time(entry_file(dir_, fp(i)),
                        base + std::chrono::seconds(i));

  EXPECT_EQ(cache.trim(1), 2u);
  EXPECT_EQ(cache.fingerprints(), (std::vector<std::string>{fp(0)}));
  pic::PicResult out;
  EXPECT_EQ(cache.load(fp(0), out), CacheLoad::kHit);
}

TEST_F(CacheTest, ConcurrentWritersNeverTearEntries) {
  // Hammer a small fingerprint set from several writers while readers
  // poll: every load must be a miss or a sealed hit with one of the
  // written payloads — kCorrupt would mean a reader saw a torn entry.
  ResultCache cache(dir_);
  constexpr unsigned kFps = 4;
  constexpr int kWriters = 4;
  constexpr int kRounds = 25;
  std::atomic<bool> torn{false};
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w)
    threads.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round)
        for (unsigned i = 0; i < kFps; ++i)
          cache.store(fp(i), "p\n",
                      result_with_total(static_cast<double>(w * kRounds + round)));
    });
  std::vector<std::thread> readers;
  for (int rd = 0; rd < 2; ++rd)
    readers.emplace_back([&] {
      while (!stop.load()) {
        for (unsigned i = 0; i < kFps; ++i) {
          pic::PicResult out;
          if (cache.load(fp(i), out) == CacheLoad::kCorrupt) torn.store(true);
        }
      }
    });
  for (auto& t : threads) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_FALSE(torn.load());
  EXPECT_EQ(cache.entries(), kFps);
  for (unsigned i = 0; i < kFps; ++i) {
    pic::PicResult out;
    EXPECT_EQ(cache.load(fp(i), out), CacheLoad::kHit);
  }
  // No leftover temp files once all writers are done.
  std::size_t stray = 0;
  for (const auto& e : fs::directory_iterator(dir_))
    if (e.path().extension() != ".entry") ++stray;
  EXPECT_EQ(stray, 0u);
}

TEST_F(CacheTest, UncreatableDirectoryThrows) {
  const std::string file = (fs::path(::testing::TempDir()) /
                            "picpar_cache_blocker").string();
  spew(file, "not a directory");
  EXPECT_THROW(ResultCache inner(file + "/sub"), std::runtime_error);
  fs::remove(file);
}

}  // namespace
}  // namespace picpar::sweep
