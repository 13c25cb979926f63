#include "apps/bistab.h"

#include <cmath>
#include <sstream>

namespace scisparql {
namespace apps {

namespace {

/// Deterministic 64-bit mix (splitmix64) so datasets are reproducible.
uint64_t Mix(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Uniform(uint64_t& state) {
  return static_cast<double>(Mix(state) >> 11) / 9007199254740992.0;
}

/// Simulates a bistable two-species birth/death process: species A toggles
/// between a low (~20) and a high (~80) quasi-stable level with rare
/// switches; species B mirrors it. The rates shift the switching bias, so
/// queries filtering on rates see correlated outcomes, like in the paper's
/// application.
NumericArray SimulateTrajectory(int timesteps, double k1, double ka,
                                double kd, double k4, uint64_t seed) {
  NumericArray out =
      NumericArray::Zeros(ElementType::kDouble, {timesteps, 2});
  uint64_t state = seed;
  double high_bias = k1 / (k1 + k4);  // in (0,1): probability mass of high
  bool high = Uniform(state) < high_bias;
  double a = high ? 80 : 20;
  for (int t = 0; t < timesteps; ++t) {
    // Rare state switches; rate constants set the switch probabilities.
    double switch_p = (high ? kd : ka) * 0.0005;
    if (Uniform(state) < switch_p) high = !high;
    double target = high ? 80 : 20;
    a += 0.2 * (target - a) + (Uniform(state) - 0.5) * 4.0;
    double b = 100.0 - a + (Uniform(state) - 0.5) * 2.0;
    int64_t idx_a[] = {t, 0};
    int64_t idx_b[] = {t, 1};
    (void)out.Set(idx_a, a);
    (void)out.Set(idx_b, b);
  }
  return out;
}

}  // namespace

Result<BistabStats> GenerateBistab(SSDM* engine, const BistabConfig& config) {
  BistabStats stats;
  Graph& g = engine->dataset().default_graph();
  // The whole sweep lands as one batch once every array is stored.
  WriteBatch batch;
  const std::string ns = kBistabNs;
  uint64_t state = config.seed;

  Term experiment = Term::Iri(ns + "experiment1");
  batch.Add(experiment, Term::Iri(vocab::kRdfType),
            Term::Iri(ns + "Experiment"));
  batch.Add(experiment, Term::Iri(ns + "description"),
            Term::String("synthetic BISTAB parameter sweep"));

  int task_no = 0;
  for (int pc = 0; pc < config.parameter_cases; ++pc) {
    double k1 = 10.0 + 40.0 * Uniform(state);
    double ka = 30.0 + 60.0 * Uniform(state);
    double kd = 1.0 + 9.0 * Uniform(state);
    double k4 = 40.0 + 40.0 * Uniform(state);
    for (int r = 0; r < config.realizations; ++r) {
      ++task_no;
      Term task = Term::Iri(ns + "task" + std::to_string(task_no));
      batch.Add(experiment, Term::Iri(ns + "hasTask"), task);
      batch.Add(task, Term::Iri(vocab::kRdfType), Term::Iri(ns + "Task"));
      batch.Add(task, Term::Iri(ns + "k_1"), Term::Double(k1));
      batch.Add(task, Term::Iri(ns + "k_a"), Term::Double(ka));
      batch.Add(task, Term::Iri(ns + "k_d"), Term::Double(kd));
      batch.Add(task, Term::Iri(ns + "k_4"), Term::Double(k4));
      batch.Add(task, Term::Iri(ns + "realization"), Term::Integer(r + 1));

      NumericArray trajectory = SimulateTrajectory(
          config.timesteps, k1, ka, kd, k4, Mix(state));
      stats.array_elements += trajectory.NumElements();
      Term value;
      if (config.storage.empty()) {
        value = Term::Array(ResidentArray::Make(std::move(trajectory)));
      } else {
        SCISPARQL_ASSIGN_OR_RETURN(
            value, engine->StoreArray(trajectory, config.storage,
                                      config.chunk_elems));
      }
      batch.Add(task, Term::Iri(ns + "result"), value);
      ++stats.tasks;
    }
  }
  g.Apply(std::move(batch));
  stats.triples = g.size();
  return stats;
}

namespace {

std::string Prefix() {
  return std::string("PREFIX bi: <") + kBistabNs + ">\n";
}

}  // namespace

std::string BistabQ1(double k1_min) {
  std::ostringstream q;
  q << Prefix()
    << "SELECT ?task ?k1 WHERE {\n"
       "  ?task a bi:Task ; bi:k_1 ?k1 ; bi:realization 1 .\n"
       "  FILTER (?k1 > "
    << k1_min
    << ")\n"
       "} ORDER BY ?k1";
  return q.str();
}

std::string BistabQ2(double k1_min) {
  // Final state of species A: last row, first column (1-based subscripts);
  // the row index ADIMS(?r)[1] is the trajectory length.
  std::ostringstream q2;
  q2 << Prefix()
     << "SELECT ?task ?final WHERE {\n"
        "  ?task a bi:Task ; bi:k_1 ?k1 ; bi:result ?r .\n"
        "  FILTER (?k1 > "
     << k1_min
     << ")\n"
        "  BIND (?r[ADIMS(?r)[1], 1] AS ?final)\n"
        "} ORDER BY ?task";
  return q2.str();
}

std::string BistabQ3(double threshold) {
  std::ostringstream q;
  q << Prefix()
    << "SELECT ?task ?mean WHERE {\n"
       "  ?task a bi:Task ; bi:result ?r .\n"
       "  BIND (AAVG(?r[:, 1]) AS ?mean)\n"
       "  FILTER (?mean > "
    << threshold
    << ")\n"
       "} ORDER BY DESC(?mean)";
  return q.str();
}

std::string BistabQ4(int timesteps) {
  std::ostringstream q;
  q << Prefix()
    << "SELECT ?k1 (AVG(?high) AS ?high_fraction) "
       "(COUNT(*) AS ?realizations) WHERE {\n"
       "  ?task a bi:Task ; bi:k_1 ?k1 ; bi:result ?r .\n"
       "  BIND (IF(?r["
    << timesteps
    << ", 1] > 50, 1.0, 0.0) AS ?high)\n"
       "} GROUP BY ?k1 ORDER BY ?k1";
  return q.str();
}

}  // namespace apps
}  // namespace scisparql
