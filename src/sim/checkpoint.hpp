#pragma once
/// \file checkpoint.hpp
/// Versioned engine-state checkpoints (SimConfig::checkpoint_*).
///
/// A checkpoint blob is a fixed little-endian layout (core/blob.hpp):
///
///   [magic "OTISCKP1"] [version u64] [config fingerprint] [engine payload]
///   [FNV-1a-64 of every preceding byte, u64]
///
/// The fingerprint pins everything the payload's meaning depends on --
/// engine, seed, window sizes, queue capacity, wavelengths, arbitration,
/// drain flag, latency representation, and the topology's node/coupler
/// counts. A resume against a blob whose checksum (verified before any
/// field is read) or fingerprint does not match the current run silently
/// starts fresh: the blob is damaged, or belongs to some other cell or
/// an older spec. The engine payload is owned by each engine's run
/// function; restored runs are bit-identical to uninterrupted ones.

#include <cstdint>
#include <string>
#include <vector>

#include "core/blob.hpp"
#include "core/error.hpp"
#include "sim/voq_arena.hpp"

namespace otis::obs {
class Telemetry;
}  // namespace otis::obs

namespace otis::sim {

struct SimConfig;

/// Blob layout version; bump on any header or payload format change.
inline constexpr std::uint64_t kCheckpointVersion = 8;

/// Appends magic, version and the config fingerprint to `out`. Engines
/// call this first, then append their payload.
void checkpoint_write_header(core::BlobWriter& out, const SimConfig& config,
                             std::int64_t nodes, std::int64_t couplers);

/// Consumes and validates the header from `in`. Returns true when the
/// blob was written by checkpoint_write_header for this exact
/// (config, topology); false on any mismatch. Throws only on a
/// truncated buffer (checkpoint_load screens that out).
[[nodiscard]] bool checkpoint_read_header(core::BlobReader& in,
                                          const SimConfig& config,
                                          std::int64_t nodes,
                                          std::int64_t couplers);

/// Reads the blob at `path` into `bytes`, verifies and strips its
/// checksum, and checks its header against (config, nodes, couplers).
/// Returns true only when an intact, matching checkpoint is present; any
/// failure (missing file, truncation, checksum mismatch, wrong version
/// or fingerprint) returns false and the caller runs from slot 0. Never
/// throws.
[[nodiscard]] bool checkpoint_load(const std::string& path,
                                   const SimConfig& config, std::int64_t nodes,
                                   std::int64_t couplers,
                                   std::vector<std::uint8_t>& bytes);

/// The slot a run resuming from `path` starts at: the boundary of the
/// blob checkpoint_load accepts for (config, nodes, couplers), or 0 when
/// it accepts none and the run starts fresh.
[[nodiscard]] std::int64_t checkpoint_boundary(const std::string& path,
                                               const SimConfig& config,
                                               std::int64_t nodes,
                                               std::int64_t couplers);

/// Appends the checksum to a finished blob and writes it to `path`
/// atomically (tmp + rename), so a crash mid-write never corrupts the
/// previous checkpoint.
void checkpoint_store(const std::string& path, core::BlobWriter& out);

/// VOQ arena round-trip. Entries are written head-to-tail per queue and
/// re-pushed on restore, so the restored arena reproduces every queue's
/// logical FIFO state whatever segment layout the saving run had grown
/// into. The restoring engine assigns pools (set_pool) before calling
/// checkpoint_get_voq; restore pushes happen single-threaded. Restore
/// throws core::Error on a destination outside [0, nodes) (the timed
/// arena stores it as int32), negative hops, or a queue longer than the
/// bytes left in the blob.
template <bool Timed>
void checkpoint_put_voq(core::BlobWriter& out, const VoqArenaT<Timed>& voq) {
  out.put_u64(voq.queue_count());
  for (std::size_t q = 0; q < voq.queue_count(); ++q) {
    out.put_u64(voq.size(q));
    voq.for_each_entry(q, [&](const typename VoqArenaT<Timed>::Entry& e) {
      out.put_i64(e.id);
      out.put_i64(e.destination);
      out.put_i64(e.created);
      out.put_i64(e.hops);
      if constexpr (Timed) {
        out.put_i64(e.ready);
      }
    });
  }
}

template <bool Timed>
void checkpoint_get_voq(core::BlobReader& in, VoqArenaT<Timed>& voq,
                        std::int64_t nodes) {
  constexpr std::uint64_t kEntryBytes = Timed ? 40 : 32;
  const std::uint64_t queues = in.get_u64();
  OTIS_REQUIRE(queues == voq.queue_count(),
               "checkpoint: VOQ queue count mismatch");
  for (std::size_t q = 0; q < queues; ++q) {
    const std::uint64_t n = in.get_u64();
    OTIS_REQUIRE(n <= in.remaining() / kEntryBytes,
                 "checkpoint: VOQ length exceeds the blob");
    for (std::uint64_t i = 0; i < n; ++i) {
      typename VoqArenaT<Timed>::Entry e;
      e.id = in.get_i64();
      e.destination = in.get_i64();
      e.created = in.get_i64();
      const std::int64_t hops = in.get_i64();
      OTIS_REQUIRE(e.destination >= 0 && e.destination < nodes,
                   "checkpoint: VOQ destination outside the network");
      OTIS_REQUIRE(hops >= 0 && hops <= INT32_MAX,
                   "checkpoint: VOQ hop count out of range");
      e.hops = static_cast<std::int32_t>(hops);
      if constexpr (Timed) {
        e.ready = in.get_i64();
      }
      voq.push(q, e);
    }
  }
}

/// Telemetry sampler continuation state: presence flag, last sampled
/// slot, and the sampler's cross-row state (header flag + previous
/// counter values), so a resumed run appends rows byte-identically to
/// an uninterrupted one. Attaching telemetry to only one side of a
/// save/resume pair is a configuration error (OTIS_REQUIRE).
void checkpoint_put_telemetry(core::BlobWriter& out,
                              const obs::Telemetry* tel,
                              std::int64_t tel_last);
/// Returns the restored tel_last (0 when no telemetry was saved).
[[nodiscard]] std::int64_t checkpoint_get_telemetry(core::BlobReader& in,
                                                    obs::Telemetry* tel);

}  // namespace otis::sim
