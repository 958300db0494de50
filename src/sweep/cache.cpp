#include "sweep/cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "pic/config.hpp"
#include "pic/result_io.hpp"
#include "sim/faults.hpp"
#include "trace/metrics.hpp"

namespace picpar::sweep {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kMagic = "picpar-cache v1";
constexpr std::string_view kEntrySuffix = ".entry";

std::string hex64(std::uint64_t h) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 0; i < 16; ++i)
    s[static_cast<std::size_t>(i)] =
        digits[(h >> (60 - 4 * i)) & 0xf];
  return s;
}

std::uint64_t hash_bytes(std::string_view s) {
  return sim::fnv1a(reinterpret_cast<const std::byte*>(s.data()), s.size());
}

bool valid_fingerprint(const std::string& fp) {
  if (fp.size() != 16) return false;
  for (const char c : fp)
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  return true;
}

/// "key:<n>\n<raw bytes>\n" block reader shared by params/result sections.
bool read_block(std::string_view text, std::size_t& pos,
                std::string_view key, std::string& out) {
  const auto nl = text.find('\n', pos);
  if (nl == std::string_view::npos) return false;
  std::string_view line = text.substr(pos, nl - pos);
  if (line.substr(0, key.size()) != key || line.size() == key.size() ||
      line[key.size()] != ':')
    return false;
  std::uint64_t n = 0;
  for (const char c : line.substr(key.size() + 1)) {
    if (c < '0' || c > '9') return false;
    n = n * 10 + static_cast<std::uint64_t>(c - '0');
  }
  pos = nl + 1;
  if (text.size() - pos < n + 1) return false;
  out.assign(text.substr(pos, static_cast<std::size_t>(n)));
  pos += static_cast<std::size_t>(n);
  if (text[pos] != '\n') return false;
  ++pos;
  return true;
}

}  // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_))
    throw std::runtime_error("ResultCache: cannot create directory " + dir_);
}

std::string ResultCache::entry_path(const std::string& fingerprint) const {
  return (fs::path(dir_) / (fingerprint + std::string(kEntrySuffix)))
      .string();
}

bool ResultCache::read_entry(const std::string& fingerprint,
                             std::string& params, std::string& result) const {
  if (!valid_fingerprint(fingerprint)) return false;
  std::ifstream f(entry_path(fingerprint), std::ios::binary);
  if (!f) return false;
  std::ostringstream buf;
  buf << f.rdbuf();
  if (!f.good() && !f.eof()) return false;
  const std::string text = std::move(buf).str();

  // The seal is the last line: "seal=<16 hex>\n" over every prior byte.
  constexpr std::string_view kSeal = "seal=";
  if (text.size() < kSeal.size() + 17 || text.back() != '\n') return false;
  const std::size_t seal_pos = text.rfind(kSeal, text.size() - 18);
  if (seal_pos == std::string::npos ||
      (seal_pos != 0 && text[seal_pos - 1] != '\n'))
    return false;
  const std::string_view sealed(text.data(), seal_pos);
  const std::string_view sealhex(text.data() + seal_pos + kSeal.size(), 16);
  if (text.size() != seal_pos + kSeal.size() + 17) return false;
  if (hex64(hash_bytes(sealed)) != sealhex) return false;

  // Sealed body: magic, fingerprint echo, params block, result block.
  std::size_t pos = 0;
  auto nl = sealed.find('\n');
  if (nl == std::string_view::npos || sealed.substr(0, nl) != kMagic)
    return false;
  pos = nl + 1;
  nl = sealed.find('\n', pos);
  if (nl == std::string_view::npos ||
      sealed.substr(pos, nl - pos) != "fingerprint=" + fingerprint)
    return false;
  pos = nl + 1;
  if (!read_block(sealed, pos, "params", params)) return false;
  if (!read_block(sealed, pos, "result", result)) return false;
  return pos == sealed.size();
}

CacheLoad ResultCache::load(const std::string& fingerprint,
                            pic::PicResult& out) const {
  std::error_code ec;
  if (!fs::exists(entry_path(fingerprint), ec)) return CacheLoad::kMiss;
  std::string params, result;
  if (!read_entry(fingerprint, params, result)) return CacheLoad::kCorrupt;
  try {
    out = pic::parse_result(result);
  } catch (const std::runtime_error&) {
    return CacheLoad::kCorrupt;
  }
  return CacheLoad::kHit;
}

bool ResultCache::store(const std::string& fingerprint,
                        const std::string& canonical,
                        const pic::PicResult& result) const {
  if (!valid_fingerprint(fingerprint)) return false;
  std::string body;
  const std::string payload = pic::serialize_result(result);
  body.reserve(canonical.size() + payload.size() + 128);
  body += kMagic;
  body += "\nfingerprint=";
  body += fingerprint;
  body += "\nparams:";
  trace::detail::append_num(body, static_cast<std::uint64_t>(canonical.size()));
  body += '\n';
  body += canonical;
  body += "\nresult:";
  trace::detail::append_num(body, static_cast<std::uint64_t>(payload.size()));
  body += '\n';
  body += payload;
  body += '\n';
  const std::string seal = hex64(hash_bytes(body));
  body += "seal=";
  body += seal;
  body += '\n';

  // Unique-per-writer temp name, then atomic rename: concurrent sweep
  // processes sharing the directory each publish whole entries or nothing.
  static std::atomic<unsigned> g_counter{0};
  const std::string tmp =
      entry_path(fingerprint) + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(g_counter.fetch_add(1));
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return false;
    f << body;
    f.flush();
    if (!f.good()) {
      f.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, entry_path(fingerprint), ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

std::string ResultCache::params_text(const std::string& fingerprint) const {
  std::string params, result;
  if (!read_entry(fingerprint, params, result)) return {};
  return params;
}

std::vector<std::string> ResultCache::fingerprints() const {
  std::vector<std::string> out;
  std::error_code ec;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() == 16 + kEntrySuffix.size() &&
        name.substr(16) == kEntrySuffix &&
        valid_fingerprint(name.substr(0, 16)))
      out.push_back(name.substr(0, 16));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t ResultCache::entries() const { return fingerprints().size(); }

std::size_t ResultCache::trim(std::size_t max_entries) const {
  struct Entry {
    bool live = false;
    fs::file_time_type mtime;
    std::string name;
  };
  std::vector<Entry> all;
  std::error_code ec;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() != 16 + kEntrySuffix.size() ||
        name.substr(16) != kEntrySuffix || !valid_fingerprint(name.substr(0, 16)))
      continue;
    std::error_code mec;
    const auto mtime = fs::last_write_time(it->path(), mec);
    if (mec) continue;
    all.push_back(Entry{false, mtime, name});
  }
  if (all.size() <= max_entries) return 0;
  // Dead entries go first, oldest first: one stored under another
  // canonical version is never looked up again, and one that no longer
  // loads would be recomputed anyway. Every canonical text of this build
  // opens with the same version line.
  const std::string canonical = pic::PicParams{}.canonical();
  const std::string_view version(canonical.data(), canonical.find('\n') + 1);
  for (Entry& e : all) {
    std::string params, result;
    if (!read_entry(e.name.substr(0, 16), params, result) ||
        !params.starts_with(version))
      continue;
    try {
      (void)pic::parse_result(result);
    } catch (const std::runtime_error&) {
      continue;  // no longer loads
    }
    e.live = true;
  }
  std::sort(all.begin(), all.end(), [](const Entry& a, const Entry& b) {
    if (a.live != b.live) return b.live;
    if (a.mtime != b.mtime) return a.mtime < b.mtime;
    return a.name < b.name;
  });
  const std::size_t evict = all.size() - max_entries;
  std::size_t removed = 0;
  for (std::size_t i = 0; i < evict; ++i) {
    std::error_code rec;
    if (fs::remove(fs::path(dir_) / all[i].name, rec) && !rec) ++removed;
  }
  return removed;
}

}  // namespace picpar::sweep
