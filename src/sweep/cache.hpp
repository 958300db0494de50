// On-disk content-addressed cache of simulation results.
//
// Entries are keyed by PicParams::fingerprint(): one file
// `<fingerprint>.entry` per configuration, holding the canonical parameter
// text (provenance — the pre-image of the key, so a cache directory is
// self-describing) and the serialized PicResult. Layout:
//
//   picpar-cache v1\n
//   fingerprint=<16 hex>\n
//   params:<nbytes>\n<canonical params bytes>\n
//   result:<nbytes>\n<serialized result bytes>\n
//   seal=<16 hex>\n
//
// Torn-write safety uses the checkpoint store's valid-flag idiom
// (DESIGN.md §11) adapted to files: the `seal` line — FNV-1a over every
// byte before it — is written last, so a crash mid-write leaves an entry
// the loader rejects; and the entry is assembled in a per-process uniquely
// named temp file that is atomically rename()d into place, so two sweep
// processes sharing one directory never read each other's half-written
// bytes. A load that fails any check (missing seal, checksum mismatch,
// malformed result) reports kCorrupt and the caller recomputes — corruption
// costs a simulation, never a crash.
//
// No wall-clock calls anywhere (the determinism lint bans them outside
// src/trace); eviction orders entries by filesystem mtime, with the
// filename as a deterministic tie-break.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "pic/result.hpp"

namespace picpar::sweep {

enum class CacheLoad {
  kHit,      ///< entry present, sealed, and parsed
  kMiss,     ///< no entry for this fingerprint
  kCorrupt,  ///< entry present but torn/corrupt — treat as a miss
};

class ResultCache {
public:
  /// Opens (and creates if needed) the cache directory. Throws
  /// std::runtime_error when the directory cannot be created.
  explicit ResultCache(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Look up one fingerprint; fills `out` only on kHit.
  CacheLoad load(const std::string& fingerprint, pic::PicResult& out) const;

  /// Persist one result under its fingerprint (atomic replace; last writer
  /// wins, which is safe because entries with equal fingerprints describe
  /// the same deterministic result). Returns false on I/O failure — a
  /// store failure degrades the cache, never the sweep.
  bool store(const std::string& fingerprint, const std::string& canonical,
             const pic::PicResult& result) const;

  /// Stored canonical-params provenance for an entry ("" on miss/corrupt).
  std::string params_text(const std::string& fingerprint) const;

  /// Number of committed entries.
  std::size_t entries() const;

  /// Evict entries until at most `max_entries` remain: first the dead ones
  /// (stored under another canonical version, or no longer loadable), then
  /// the live ones, each group oldest first (mtime order, filename
  /// tie-break). Returns the number evicted.
  std::size_t trim(std::size_t max_entries) const;

  /// Fingerprints of all committed entries, sorted (diagnostics/tests).
  std::vector<std::string> fingerprints() const;

private:
  std::string entry_path(const std::string& fingerprint) const;
  bool read_entry(const std::string& fingerprint, std::string& params,
                  std::string& result) const;

  std::string dir_;
};

}  // namespace picpar::sweep
