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
inline constexpr std::uint64_t kCheckpointVersion = 9;

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

/// Checkpoint bytes of one queued or in-flight packet: id,
/// destination, created and hops, an i64 each.
void checkpoint_put_entry(core::BlobWriter& out, const VoqEntry& e);

/// Reads what checkpoint_put_entry wrote. Throws core::Error unless it
/// could be an open-loop packet of a network of `nodes` saved at
/// `boundary` (a slot, or a tick on the calendar path): id -1 - source
/// for a source in [0, nodes), destination in [0, nodes), created in
/// [0, boundary) and hops in [0, VoqEntry::kMaxHops]. So no field is
/// narrowed into the record unchecked.
[[nodiscard]] VoqEntry checkpoint_get_entry(core::BlobReader& in,
                                            std::int64_t nodes,
                                            std::int64_t boundary);

/// VOQ arena round-trip. Entries are written head-to-tail per queue and
/// re-pushed on restore, so the restored arena reproduces every queue's
/// logical FIFO state whatever segment layout the saving run had grown
/// into. The restoring engine assigns pools (set_pool) before calling
/// checkpoint_get_voq; restore pushes happen single-threaded. Restore
/// throws core::Error on an entry checkpoint_get_entry refuses, or a
/// queue longer than the bytes left in the blob.
template <bool Timed>
void checkpoint_put_voq(core::BlobWriter& out, const VoqArenaT<Timed>& voq) {
  out.put_u64(voq.queue_count());
  for (std::size_t q = 0; q < voq.queue_count(); ++q) {
    out.put_u64(voq.size(q));
    voq.for_each_entry(q, [&](const typename VoqArenaT<Timed>::Entry& e) {
      checkpoint_put_entry(out, e);
      if constexpr (Timed) {
        out.put_i64(e.ready);
      }
    });
  }
}

template <bool Timed>
void checkpoint_get_voq(core::BlobReader& in, VoqArenaT<Timed>& voq,
                        std::int64_t nodes, std::int64_t boundary) {
  constexpr std::uint64_t kEntryBytes = Timed ? 40 : 32;
  const std::uint64_t queues = in.get_u64();
  OTIS_REQUIRE(queues == voq.queue_count(),
               "checkpoint: VOQ queue count mismatch");
  for (std::size_t q = 0; q < queues; ++q) {
    const std::uint64_t n = in.get_u64();
    OTIS_REQUIRE(n <= in.remaining() / kEntryBytes,
                 "checkpoint: VOQ length exceeds the blob");
    for (std::uint64_t i = 0; i < n; ++i) {
      const VoqEntry e = checkpoint_get_entry(in, nodes, boundary);
      if constexpr (Timed) {
        voq.push(q, TimedVoqEntry{e, in.get_i64()});
      } else {
        voq.push(q, e);
      }
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
