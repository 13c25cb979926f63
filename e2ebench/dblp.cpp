#include "dblp.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace e2ebench {

double Rng::Gauss(double mu, double sigma) {
  double u1 = std::max(Uniform(), 1e-300);
  double u2 = Uniform();
  return mu + sigma * std::sqrt(-2.0 * std::log(u1)) *
                  std::cos(6.283185307179586 * u2);
}

size_t Rng::ZipfRank(size_t n, double s, double u) {
  if (n <= 1) return 0;
  double np1 = static_cast<double>(n) + 1.0;
  double x = s == 1.0 ? std::exp(u * std::log(np1))
                      : std::pow(1 + u * (std::pow(np1, 1 - s) - 1), 1 / (1 - s));
  return std::min(n - 1, static_cast<size_t>(x) - 1);
}

namespace {

// The SP²Bench vocabulary: prefix name and namespace IRI.
const char* const kVocabulary[][2] = {
    {"rdf", "http://www.w3.org/1999/02/22-rdf-syntax-ns#"},
    {"dc", "http://purl.org/dc/elements/1.1/"},
    {"dcterms", "http://purl.org/dc/terms/"},
    {"foaf", "http://xmlns.com/foaf/0.1/"},
    {"swrc", "http://swrc.ontoware.org/ontology#"},
    {"bench", "http://localhost/vocabulary/bench/"},
    {"pub", "http://localhost/pub/"},
    {"per", "http://localhost/persons/"},
};

// `head` + name + ": <" + iri + ">" + `tail`, one line per prefix.
std::string PrefixLines(const char* head, const char* tail) {
  std::string out;
  for (const auto& v : kVocabulary) {
    out += std::string(head) + v[0] + ": <" + v[1] + ">" + tail + "\n";
  }
  return out;
}

}  // namespace

const std::string kDblpPrefixes = PrefixLines("PREFIX ", "");

namespace {

// Logistic per-year growth curves, f(yr) = a / (1 + b e^{-c (yr - y0)}),
// with the SP²Bench shape: journals and articles from the 1930s,
// conference proceedings from the 1960s growing faster.
double Logistic(double a, double b, double c, int y0, int yr) {
  return a / (1.0 + b * std::exp(-c * (yr - y0)));
}

const char* const kWords[] = {
    "adaptive", "array",   "bayesian", "cache",    "data",     "dynamic",
    "efficient", "graph",  "index",    "join",     "learning", "model",
    "network",  "optimal", "parallel", "query",    "random",   "scalable",
    "semantic", "sparse",  "stream",   "system",   "theory",   "web"};
const char* const kFirst[] = {"Ada",  "Alan",  "Barbara", "Edsger", "Grace",
                              "John", "Leslie", "Niklaus", "Tony",   "Donald",
                              "Frances", "Jim"};
const char* const kLast[] = {"Lovelace", "Turing",  "Liskov", "Dijkstra",
                             "Hopper",   "Backus",  "Lamport", "Wirth",
                             "Hoare",    "Knuth",   "Allen",  "Gray"};

// "<tag><year>_<n>", e.g. j1950_3. (Built by appends: GCC 12 misreports
// `"j" + std::to_string(...)` under -Wrestrict.)
std::string VenueId(char tag, int yr, int n) {
  std::string id(1, tag);
  id += std::to_string(yr);
  id += '_';
  id += std::to_string(n);
  return id;
}

// Exponent of the Zipf weights behind author and citation picks. Picking
// by weight rather than by preferential attachment keeps the most popular
// entities' degrees nearly the same from seed to seed (an attachment urn
// converges to a random share), so workload cost does not hinge on the seed.
constexpr double kZipfS = 0.8;

class Writer {
 public:
  Writer(uint64_t seed, size_t target)
      : rng_(seed), target_(target), out_(PrefixLines("@prefix ", " .")) {}

  DblpData Run() {
    for (int yr = 1936; !Full(); ++yr) {
      d_.last_year = yr;
      Year(yr);
    }
    d_.turtle = std::move(out_);
    d_.triples = triples_;
    return std::move(d_);
  }

 private:
  bool Full() const { return triples_ >= target_; }

  int Count(double expected) {
    return static_cast<int>(expected + rng_.Uniform());
  }

  void Year(int yr) {
    int n_journals = std::max(1, Count(Logistic(740.43, 426.28, 0.12, 1950, yr)));
    int n_articles = Count(Logistic(58519.12, 876.80, 0.12, 1950, yr));
    int n_procs = yr < 1960 ? 0 : Count(Logistic(5502.31, 1250.26, 0.14, 1965, yr));
    int n_inprocs =
        n_procs == 0 ? 0 : Count(Logistic(337132.34, 25000.0, 0.20, 1965, yr));

    std::vector<std::string> journals, procs;
    for (int j = 1; j <= n_journals && !Full(); ++j) {
      std::string id = VenueId('j', yr, j);
      Subject("pub:" + id, "bench:Journal");
      Str("dc:title", "Journal " + std::to_string(j) + " (" +
                          std::to_string(yr) + ")");
      Int("dcterms:issued", yr);
      Int("swrc:volume", yr - 1935);
      End();
      journals.push_back(id);
      d_.journals.push_back(id);
    }
    for (int p = 1; p <= n_procs && !Full(); ++p) {
      std::string id = VenueId('p', yr, p);
      Subject("pub:" + id, "bench:Proceedings");
      Str("dc:title", "Proceedings " + std::to_string(p) + " (" +
                          std::to_string(yr) + ")");
      Int("dcterms:issued", yr);
      if (!d_.persons.empty() && rng_.Uniform() < 0.7) {
        Iri("swrc:editor",
            "per:" + d_.persons[ExistingPerson()]);
      }
      End();
      procs.push_back(id);
    }
    // Documents interleave articles and inproceedings so a year cut short
    // by the triple budget still holds both classes.
    int a = 0, i = 0;
    while ((a < n_articles || i < n_inprocs) && !Full()) {
      bool article = i >= n_inprocs ||
                     (a < n_articles &&
                      rng_.Uniform() * (n_articles + n_inprocs) < n_articles);
      if (article) {
        ++a;
        Document(yr, true, journals[rng_.Below(journals.size())]);
      } else if (!procs.empty()) {
        ++i;
        Document(yr, false, procs[rng_.Below(procs.size())]);
      } else {
        i = n_inprocs;
      }
    }
  }

  void Document(int yr, bool article, const std::string& venue) {
    std::string id(article ? "a" : "i");
    id += std::to_string(++doc_no_);
    // Authors are created before the document's own triples so their
    // descriptions precede it in the file.
    double mu_auth = 2.05 / (1 + 17.59 * std::exp(-0.11 * (yr - 1975))) + 1.05;
    int n_auth = std::max(1, static_cast<int>(std::lround(rng_.Gauss(mu_auth, 1.0))));
    std::vector<size_t> authors;
    for (int k = 0; k < n_auth; ++k) {
      size_t p = (d_.persons.empty() || rng_.Uniform() < 0.35)
                     ? NewPerson()
                     : ExistingPerson();
      if (std::find(authors.begin(), authors.end(), p) == authors.end()) {
        authors.push_back(p);
      }
    }

    Subject("pub:" + id, article ? "bench:Article" : "bench:Inproceedings");
    Str("dc:title", Title());
    Int("dcterms:issued", yr);
    for (size_t p : authors) Iri("dc:creator", "per:" + d_.persons[p]);
    if (article) {
      Iri("swrc:journal", "pub:" + venue);
      if (rng_.Uniform() < 0.9) Int("swrc:pages", 1 + static_cast<int>(rng_.Below(400)));
      if (rng_.Uniform() < 0.1) Int("swrc:month", 1 + static_cast<int>(rng_.Below(12)));
      if (rng_.Uniform() < 0.05) Homepage(id);
      if (rng_.Uniform() < 0.01) Str("bench:abstract", Title() + " " + Title());
    } else {
      Str("bench:booktitle", "Proceedings of " + venue);
      if (rng_.Uniform() < 0.9) Iri("dcterms:partOf", "pub:" + venue);
      if (rng_.Uniform() < 0.6) Int("swrc:pages", 1 + static_cast<int>(rng_.Below(400)));
      if (rng_.Uniform() < 0.4) Homepage(id);
    }
    // A quarter of the documents carry a citation list of Gaussian length;
    // targets are picked half with Zipf weights over older documents (so
    // citation counts follow a power law) and half uniformly.
    if (!docs_.empty() && rng_.Uniform() < 0.25) {
      int n = std::clamp(static_cast<int>(std::lround(rng_.Gauss(16.82, 10.07))),
                         1, 60);
      std::set<size_t> picked;
      for (int k = 0; k < n; ++k) {
        size_t t = rng_.Uniform() < 0.5 ? rng_.Zipf(docs_.size(), kZipfS)
                                        : rng_.Below(docs_.size());
        if (!picked.insert(t).second) continue;
        if (cited_.insert(t).second) d_.cited.push_back(docs_[t]);
        Iri("dcterms:references", "pub:" + docs_[t]);
      }
      d_.citing.push_back(id);
    }
    End();
    docs_.push_back(id);
    (article ? d_.articles : d_.inprocs).push_back(id);
  }

  size_t NewPerson() {
    size_t idx = d_.persons.size();
    std::string id = "p";
    id += std::to_string(idx + 1);
    d_.persons.push_back(id);
    Subject("per:" + id, "foaf:Person");
    Str("foaf:name", std::string(kFirst[rng_.Below(std::size(kFirst))]) + " " +
                         kLast[rng_.Below(std::size(kLast))] + " " +
                         std::to_string(idx + 1));
    End();
    return idx;
  }

  size_t ExistingPerson() { return rng_.Zipf(d_.persons.size(), kZipfS); }

  std::string Title() {
    std::string t;
    int n = 3 + static_cast<int>(rng_.Below(5));
    for (int k = 0; k < n; ++k) {
      if (k > 0) t += ' ';
      t += kWords[rng_.Below(std::size(kWords))];
    }
    return t;
  }

  void Homepage(const std::string& id) {
    Iri("foaf:homepage", "<http://www.host" + std::to_string(rng_.Below(1000)) +
                             ".example/" + id + ">");
  }

  void Subject(const std::string& s, const std::string& type) {
    out_ += s;
    out_ += " a ";
    out_ += type;
    ++triples_;
  }
  void Iri(const char* p, const std::string& o) {
    out_ += " ;\n  ";
    out_ += p;
    out_ += ' ';
    out_ += o;
    ++triples_;
  }
  void Str(const char* p, const std::string& o) { Iri(p, "\"" + o + "\""); }
  void Int(const char* p, int v) { Iri(p, std::to_string(v)); }
  void End() { out_ += " .\n"; }

  Rng rng_;
  size_t target_;
  size_t triples_ = 0;
  size_t doc_no_ = 0;
  std::string out_;
  DblpData d_;
  std::vector<std::string> docs_;  // every document, creation order
  std::set<size_t> cited_;
};

}  // namespace

DblpData GenerateDblp(uint64_t seed, size_t target_triples) {
  return Writer(seed, target_triples).Run();
}

}  // namespace e2ebench
