#ifndef E2EBENCH_DBLP_H_
#define E2EBENCH_DBLP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/// splitmix64: the one deterministic generator behind every seeded choice
/// the benchmark makes, so a seed fixes data, query pools and client mixes.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  size_t Below(size_t n) { return n == 0 ? 0 : Next() % n; }
  /// Normal(mu, sigma) by Box-Muller.
  double Gauss(double mu, double sigma);
  /// Zipf rank in [0, n) with exponent `s`: rank 0 is the most popular.
  size_t Zipf(size_t n, double s = 1.0) { return ZipfRank(n, s, Uniform()); }

  /// The Zipf rank at quantile `u` in [0, 1): inverse of the continuous
  /// CDF of x^-s on [1, n + 1), floored.
  static size_t ZipfRank(size_t n, double s, double u);

 private:
  uint64_t state_;
};

/// The SP²Bench vocabulary, as PREFIX lines every generated statement
/// carries (the engine parses them like any client's prolog).
extern const std::string kDblpPrefixes;

/// A generated SP²Bench-style DBLP document plus the entity lists the
/// query generator draws constants from.
struct DblpData {
  std::string turtle;
  size_t triples = 0;
  int last_year = 0;
  /// Local names under pub: / per:, in creation order. Earlier persons and
  /// documents are picked as authors and citation targets with Zipf
  /// weights, so creation order is popularity order and Zipf ranks can
  /// index it.
  std::vector<std::string> articles;
  std::vector<std::string> inprocs;
  std::vector<std::string> journals;
  std::vector<std::string> persons;
  /// Documents with outgoing dcterms:references, and the distinct cited
  /// documents ordered by first citation.
  std::vector<std::string> citing;
  std::vector<std::string> cited;
};

/// Generates DBLP-shaped Turtle of about `target_triples` triples, year by
/// year from 1936 like SP²Bench: per-year document counts follow its
/// logistic growth curves, authors per paper its year-dependent Gaussian,
/// publications per author a power law (Zipf-weighted author picks),
/// outgoing citations a Gaussian on a fixed share of documents, and
/// attributes appear with per-class probabilities. All numeric literals
/// are integers, so the graph stays join-safe for the ID-join path.
/// Deterministic in `seed`: the same seed yields byte-identical Turtle.
DblpData GenerateDblp(uint64_t seed, size_t target_triples);

}  // namespace e2ebench

#endif  // E2EBENCH_DBLP_H_
