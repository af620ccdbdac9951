#include "sim/checkpoint.hpp"

#include <array>
#include <exception>
#include <utility>

#include "obs/telemetry.hpp"
#include "sim/ops_network.hpp"

namespace otis::sim {
namespace {

constexpr std::array<std::uint8_t, 8> kMagic = {'O', 'T', 'I', 'S',
                                               'C', 'K', 'P', '1'};

}  // namespace

void checkpoint_write_header(core::BlobWriter& out, const SimConfig& config,
                             std::int64_t nodes, std::int64_t couplers) {
  out.put_bytes(kMagic.data(), kMagic.size());
  out.put_u64(kCheckpointVersion);
  out.put_u8(static_cast<std::uint8_t>(config.engine));
  out.put_u8(static_cast<std::uint8_t>(config.arbitration));
  out.put_u8(config.drain ? 1 : 0);
  out.put_u8(resolve_latency_sketch(config.latency_mode, nodes) ? 1 : 0);
  out.put_u64(config.seed);
  out.put_i64(config.warmup_slots);
  out.put_i64(config.measure_slots);
  out.put_i64(config.queue_capacity);
  out.put_i64(config.wavelengths);
  out.put_i64(nodes);
  out.put_i64(couplers);
}

bool checkpoint_read_header(core::BlobReader& in, const SimConfig& config,
                            std::int64_t nodes, std::int64_t couplers) {
  for (std::uint8_t expected : kMagic) {
    if (in.get_u8() != expected) {
      return false;
    }
  }
  if (in.get_u64() != kCheckpointVersion) {
    return false;
  }
  if (in.get_u8() != static_cast<std::uint8_t>(config.engine)) {
    return false;
  }
  if (in.get_u8() != static_cast<std::uint8_t>(config.arbitration)) {
    return false;
  }
  if (in.get_u8() != (config.drain ? 1 : 0)) {
    return false;
  }
  if (in.get_u8() !=
      (resolve_latency_sketch(config.latency_mode, nodes) ? 1 : 0)) {
    return false;
  }
  if (in.get_u64() != config.seed) {
    return false;
  }
  if (in.get_i64() != config.warmup_slots) {
    return false;
  }
  if (in.get_i64() != config.measure_slots) {
    return false;
  }
  if (in.get_i64() != config.queue_capacity) {
    return false;
  }
  if (in.get_i64() != config.wavelengths) {
    return false;
  }
  if (in.get_i64() != nodes) {
    return false;
  }
  if (in.get_i64() != couplers) {
    return false;
  }
  return true;
}

bool checkpoint_load(const std::string& path, const SimConfig& config,
                     std::int64_t nodes, std::int64_t couplers,
                     std::vector<std::uint8_t>& bytes) {
  if (!core::read_file(path, bytes) || bytes.size() < 8) {
    return false;
  }
  const std::size_t body = bytes.size() - 8;
  core::BlobReader trailer(bytes.data() + body, 8);
  if (trailer.get_u64() != core::fnv1a64(bytes.data(), body)) {
    return false;
  }
  bytes.resize(body);
  try {
    core::BlobReader header(bytes);
    return checkpoint_read_header(header, config, nodes, couplers);
  } catch (const std::exception&) {
    return false;  // shorter than any valid header
  }
}

void checkpoint_store(const std::string& path, core::BlobWriter& out) {
  out.put_u64(core::fnv1a64(out.bytes().data(), out.bytes().size()));
  core::write_file_atomic(path, out.bytes());
}

void checkpoint_put_telemetry(core::BlobWriter& out, const obs::Telemetry* tel,
                              std::int64_t tel_last) {
  out.put_u8(tel != nullptr ? 1 : 0);
  if (tel == nullptr) {
    return;
  }
  out.put_i64(tel_last);
  out.put_u8(tel->header_written() ? 1 : 0);
  out.put_i64_vec(tel->sampler_prev());
}

std::int64_t checkpoint_get_telemetry(core::BlobReader& in,
                                      obs::Telemetry* tel) {
  const bool saved = in.get_u8() != 0;
  OTIS_REQUIRE(saved == (tel != nullptr),
               "checkpoint: telemetry attached to only one of the saving "
               "and resuming runs");
  if (!saved) {
    return 0;
  }
  const std::int64_t tel_last = in.get_i64();
  const bool header_written = in.get_u8() != 0;
  std::vector<std::int64_t> prev = in.get_i64_vec();
  OTIS_REQUIRE(prev.size() == tel->probes().probe_count(),
               "checkpoint: telemetry sampler state for another probe set");
  tel->restore_sampler(header_written, std::move(prev));
  return tel_last;
}

}  // namespace otis::sim
