#include "routing/kautz_routing.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace otis::routing {

using topology::Word;

namespace {

/// Longest l in [0, k] with x[k-l .. k) == y[0 .. l), over raw letters.
/// A plain loop: std::equal lowers to a memcmp call, which costs more
/// than the handful of letters compared here.
int overlap_letters(const int* x, const int* y, int k) noexcept {
  for (int l = k; l >= 1; --l) {
    int i = 0;
    while (i < l && x[k - l + i] == y[i]) {
      ++i;
    }
    if (i == l) {
      return l;
    }
  }
  return 0;
}

}  // namespace

KautzRouter::KautzRouter(topology::Kautz kautz) : kautz_(std::move(kautz)) {
  const std::int64_t n = kautz_.order();
  const auto k = static_cast<std::size_t>(kautz_.diameter());
  const auto alphabet = static_cast<std::size_t>(kautz_.alphabet());
  letters_.resize(static_cast<std::size_t>(n) * k);
  for (std::int64_t v = 0; v < n; ++v) {
    const Word word = kautz_.word_of(v);
    std::copy(word.begin(), word.end(),
              letters_.begin() + static_cast<std::ptrdiff_t>(
                                     static_cast<std::size_t>(v) * k));
  }
  // The arcs of KG(d,k) are exactly the shifts: the head of each out-arc
  // of v is shift(word(v), z) for the head's last letter z. Reading them
  // off the graph costs O(N d); the prefix check re-proves the numbering
  // is a line digraph, so the table cannot disagree with vertex_of().
  successor_.assign(static_cast<std::size_t>(n) * alphabet, -1);
  const graph::Digraph& g = kautz_.graph();
  for (std::int64_t v = 0; v < n; ++v) {
    const int* word = letters_of(v);
    for (graph::ArcId a = g.out_begin(v); a < g.out_end(v); ++a) {
      const std::int64_t u = g.head(a);
      const int* next = letters_of(u);
      const int z = next[k - 1];
      std::int64_t& entry =
          successor_[static_cast<std::size_t>(v) * alphabet +
                     static_cast<std::size_t>(z)];
      OTIS_ASSERT(entry < 0 && z != word[k - 1] &&
                      std::equal(word + 1, word + k, next),
                  "KautzRouter: arc is not a word shift");
      entry = u;
    }
  }
}

void KautzRouter::require_vertex(std::int64_t v, const char* message) const {
  OTIS_REQUIRE(v >= 0 && v < kautz_.order(), message);
}

int KautzRouter::overlap(const Word& x, const Word& y) {
  OTIS_REQUIRE(x.size() == y.size(), "KautzRouter::overlap: length mismatch");
  return overlap_letters(x.data(), y.data(), static_cast<int>(x.size()));
}

int KautzRouter::distance(std::int64_t source, std::int64_t target) const {
  require_vertex(source, "KautzRouter::distance: source out of range");
  require_vertex(target, "KautzRouter::distance: target out of range");
  const int k = kautz_.diameter();
  return k - overlap_letters(letters_of(source), letters_of(target), k);
}

std::vector<Word> KautzRouter::route_words(const Word& source,
                                           const Word& target) const {
  OTIS_REQUIRE(kautz_.is_valid_word(source),
               "KautzRouter::route_words: invalid source word");
  OTIS_REQUIRE(kautz_.is_valid_word(target),
               "KautzRouter::route_words: invalid target word");
  const int k = kautz_.diameter();
  const int l = overlap(source, target);
  std::vector<Word> path{source};
  Word current = source;
  // Shift in the target's letters y_{l+1} .. y_k, one hop each. Validity
  // of every intermediate word follows from the overlap: the boundary
  // pair is (x_k = y_l, y_{l+1}) which differs since target is valid.
  for (int i = l; i < k; ++i) {
    current = topology::Kautz::shift(current,
                                     target[static_cast<std::size_t>(i)]);
    path.push_back(current);
  }
  OTIS_ASSERT(current == target, "KautzRouter: route did not reach target");
  return path;
}

std::vector<std::int64_t> KautzRouter::route(std::int64_t source,
                                             std::int64_t target) const {
  std::vector<std::int64_t> path;
  for (const Word& w : route_words(kautz_.word_of(source),
                                   kautz_.word_of(target))) {
    path.push_back(kautz_.vertex_of(w));
  }
  return path;
}

Word KautzRouter::next_hop_word(const Word& current, const Word& target) const {
  OTIS_REQUIRE(current != target, "KautzRouter::next_hop_word: already there");
  const int l = overlap(current, target);
  OTIS_ASSERT(l < kautz_.diameter(), "next_hop_word: full overlap but not equal");
  return topology::Kautz::shift(current, target[static_cast<std::size_t>(l)]);
}

std::int64_t KautzRouter::next_hop(std::int64_t current,
                                   std::int64_t target) const {
  require_vertex(current, "KautzRouter::next_hop: current out of range");
  require_vertex(target, "KautzRouter::next_hop: target out of range");
  OTIS_REQUIRE(current != target, "KautzRouter::next_hop: already there");
  // Distinct words overlap on l < k letters; shifting in the target's
  // letter l is the label route's first hop.
  const int k = kautz_.diameter();
  const int l = overlap_letters(letters_of(current), letters_of(target), k);
  const int z = letters_of(target)[l];
  return successor_[static_cast<std::size_t>(current) *
                        static_cast<std::size_t>(kautz_.alphabet()) +
                    static_cast<std::size_t>(z)];
}

}  // namespace otis::routing
