// Parallel route compilation (core::WorkStealingPool threading through
// routing::CompiledRoutes::compile / CompressedRoutes::compile) is
// bit-identical to serial:
//  - dense tables: every next_coupler / next_slot / relay answer agrees
//    for SK, POPS, SII and a generic stack-graph, at 1 and 4 workers;
//  - compressed tables: same, plus the group-level accessors and the
//    memory footprint;
//  - the diagonal stays -1 and table sizes are unchanged, so the
//    parallel fill writes exactly the entries the serial fill does;
//  - the stack-Kautz tables, serial and pooled, hash to fingerprints
//    recorded from the word-level router, so a faster compile path
//    cannot change a single entry.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/work_pool.hpp"
#include "hypergraph/pops.hpp"
#include "hypergraph/stack_imase_itoh.hpp"
#include "hypergraph/stack_kautz.hpp"
#include "routing/compiled_routes.hpp"
#include "routing/compressed_routes.hpp"
#include "topology/debruijn.hpp"

namespace otis {
namespace {

/// Every routing answer the engines consume must agree between the
/// serial and pool-compiled tables; the relay is checked on the coupler
/// each route actually chose.
void expect_dense_equal(const routing::CompiledRoutes& serial,
                        const routing::CompiledRoutes& parallel) {
  ASSERT_EQ(serial.node_count(), parallel.node_count());
  ASSERT_EQ(serial.coupler_count(), parallel.coupler_count());
  EXPECT_EQ(serial.memory_bytes(), parallel.memory_bytes());
  for (hypergraph::Node v = 0; v < serial.node_count(); ++v) {
    for (hypergraph::Node d = 0; d < serial.node_count(); ++d) {
      if (v == d) {
        EXPECT_EQ(parallel.next_coupler(v, d), -1);
        continue;
      }
      const hypergraph::HyperarcId h = serial.next_coupler(v, d);
      ASSERT_EQ(parallel.next_coupler(v, d), h) << "v=" << v << " d=" << d;
      EXPECT_EQ(parallel.next_slot(v, d), serial.next_slot(v, d))
          << "v=" << v << " d=" << d;
      EXPECT_EQ(parallel.relay(h, d), serial.relay(h, d))
          << "h=" << h << " d=" << d;
    }
  }
}

void expect_compressed_equal(const routing::CompressedRoutes& serial,
                             const routing::CompressedRoutes& parallel) {
  ASSERT_EQ(serial.node_count(), parallel.node_count());
  ASSERT_EQ(serial.coupler_count(), parallel.coupler_count());
  ASSERT_EQ(serial.group_count(), parallel.group_count());
  EXPECT_EQ(serial.memory_bytes(), parallel.memory_bytes());
  for (hypergraph::Node v = 0; v < serial.node_count(); ++v) {
    for (hypergraph::Node d = 0; d < serial.node_count(); ++d) {
      if (v == d) {
        continue;
      }
      const hypergraph::HyperarcId h = serial.next_coupler(v, d);
      ASSERT_EQ(parallel.next_coupler(v, d), h) << "v=" << v << " d=" << d;
      EXPECT_EQ(parallel.next_slot(v, d), serial.next_slot(v, d))
          << "v=" << v << " d=" << d;
      EXPECT_EQ(parallel.relay(h, d), serial.relay(h, d))
          << "h=" << h << " d=" << d;
    }
  }
}

/// Serial baseline against pools of 1 and 4 workers. A 1-worker pool is
/// the degenerate case (same code path as 4, no actual concurrency);
/// 4 workers exercise row stealing on every family.
template <typename Network, typename CompileFn, typename CompressFn>
void expect_pool_parity(const Network& network, const CompileFn& compile,
                        const CompressFn& compress) {
  const routing::CompiledRoutes dense_serial = compile(network, nullptr);
  const routing::CompressedRoutes grouped_serial = compress(network, nullptr);
  for (const int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    core::WorkStealingPool pool(workers);
    expect_dense_equal(dense_serial, compile(network, &pool));
    expect_compressed_equal(grouped_serial, compress(network, &pool));
  }
}

TEST(ParallelCompile, StackKautzMatchesSerial) {
  expect_pool_parity(
      hypergraph::StackKautz(4, 3, 2),
      [](const auto& n, core::WorkStealingPool* pool) {
        return routing::compile_stack_kautz_routes(n, pool);
      },
      [](const auto& n, core::WorkStealingPool* pool) {
        return routing::compress_stack_kautz_routes(n, pool);
      });
}

TEST(ParallelCompile, PopsMatchesSerial) {
  expect_pool_parity(
      hypergraph::Pops(4, 5),
      [](const auto& n, core::WorkStealingPool* pool) {
        return routing::compile_pops_routes(n, pool);
      },
      [](const auto& n, core::WorkStealingPool* pool) {
        return routing::compress_pops_routes(n, pool);
      });
}

TEST(ParallelCompile, StackImaseItohMatchesSerial) {
  expect_pool_parity(
      hypergraph::StackImaseItoh(3, 2, 7),
      [](const auto& n, core::WorkStealingPool* pool) {
        return routing::compile_stack_imase_itoh_routes(n, pool);
      },
      [](const auto& n, core::WorkStealingPool* pool) {
        return routing::compress_stack_imase_itoh_routes(n, pool);
      });
}

TEST(ParallelCompile, GenericStackGraphMatchesSerial) {
  const hypergraph::StackGraph looped(3,
                                      hypergraph::imase_itoh_with_loops(2, 5));
  expect_pool_parity(
      looped,
      [](const auto& n, core::WorkStealingPool* pool) {
        return routing::compile_generic_stack_routes(n, pool);
      },
      [](const auto& n, core::WorkStealingPool* pool) {
        return routing::compress_generic_stack_routes(n, pool);
      });
}

TEST(ParallelCompile, SingleNodeGroupsTolerateUnbakedDiagonal) {
  // s = 1: every group is one node, same-group traffic does not exist
  // and the (g, g) entries stay unbaked -- the parallel fill must leave
  // them exactly as serial does.
  topology::DeBruijn db(2, 3);
  const hypergraph::StackGraph stack(1, db.graph());
  expect_pool_parity(
      stack,
      [](const auto& n, core::WorkStealingPool* pool) {
        return routing::compile_generic_stack_routes(n, pool);
      },
      [](const auto& n, core::WorkStealingPool* pool) {
        return routing::compress_generic_stack_routes(n, pool);
      });
}

/// FNV-1a (64-bit) over the little-endian bytes of int32 table entries.
class Fnv1a {
 public:
  void add(std::int64_t entry) {
    const auto bits = static_cast<std::uint32_t>(
        static_cast<std::int32_t>(entry));
    for (int byte = 0; byte < 4; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xffU;
      hash_ *= 1099511628211ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// Every entry of a dense table: next_coupler and next_slot row-major
/// (diagonal -1 included), then relay coupler-major (unbaked -1s
/// included).
std::uint64_t fingerprint(const routing::CompiledRoutes& routes) {
  Fnv1a fnv;
  const hypergraph::Node n = routes.node_count();
  for (hypergraph::Node v = 0; v < n; ++v) {
    for (hypergraph::Node d = 0; d < n; ++d) {
      fnv.add(routes.next_coupler(v, d));
    }
  }
  for (hypergraph::Node v = 0; v < n; ++v) {
    for (hypergraph::Node d = 0; d < n; ++d) {
      fnv.add(routes.next_slot(v, d));
    }
  }
  for (hypergraph::HyperarcId h = 0; h < routes.coupler_count(); ++h) {
    for (hypergraph::Node d = 0; d < n; ++d) {
      fnv.add(routes.relay(h, d));
    }
  }
  return fnv.value();
}

/// Every entry of a compressed table: the group next_coupler and
/// next_slot tables read through copy-0 representatives, then each
/// coupler's relay base (its relay for destination 0).
std::uint64_t fingerprint(const routing::CompressedRoutes& routes) {
  Fnv1a fnv;
  const std::int64_t groups = routes.group_count();
  const std::int64_t s = routes.stacking_factor();
  for (std::int64_t gx = 0; gx < groups; ++gx) {
    for (std::int64_t gy = 0; gy < groups; ++gy) {
      fnv.add(routes.next_coupler(gx * s, gy * s));
    }
  }
  for (std::int64_t gx = 0; gx < groups; ++gx) {
    for (std::int64_t gy = 0; gy < groups; ++gy) {
      fnv.add(routes.next_slot(gx * s, gy * s));
    }
  }
  for (hypergraph::HyperarcId h = 0; h < routes.coupler_count(); ++h) {
    fnv.add(routes.relay(h, 0));
  }
  return fnv.value();
}

TEST(ParallelCompile, StackKautzTablesMatchRecordedFingerprints) {
  // Recorded from tables compiled by the word-level router (per-call
  // word decode, shift and re-encode), before next_hop read label
  // tables.
  core::WorkStealingPool pool(4);
  for (const auto& [sk, expected] :
       {std::pair{hypergraph::StackKautz(4, 3, 2), 0x3ecbffc922a5cc65ULL},
        std::pair{hypergraph::StackKautz(8, 8, 2), 0x31431e4c8764d865ULL}}) {
    SCOPED_TRACE("dense SK(" + std::to_string(sk.stacking_factor()) + "," +
                 std::to_string(sk.kautz_degree()) + "," +
                 std::to_string(sk.diameter()) + ")");
    EXPECT_EQ(fingerprint(routing::compile_stack_kautz_routes(sk)), expected);
    EXPECT_EQ(fingerprint(routing::compile_stack_kautz_routes(sk, &pool)),
              expected);
  }
  const hypergraph::StackKautz big(10, 10, 3);
  EXPECT_EQ(fingerprint(routing::compress_stack_kautz_routes(big)),
            0xa7ab433fa88c7b58ULL);
  EXPECT_EQ(fingerprint(routing::compress_stack_kautz_routes(big, &pool)),
            0xa7ab433fa88c7b58ULL);
}

}  // namespace
}  // namespace otis
