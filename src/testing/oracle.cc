#include "testing/oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <sstream>

#include "util/finite.h"
#include "util/logging.h"

namespace kucnet {
namespace testing {

namespace {

/// Maps a double onto a monotone signed-integer scale so that adjacent
/// representable doubles differ by 1. Both zeros map to 0.
int64_t OrderedInt(double x) {
  int64_t bits;
  static_assert(sizeof(bits) == sizeof(x));
  std::memcpy(&bits, &x, sizeof(bits));
  return bits < 0 ? std::numeric_limits<int64_t>::min() - bits : bits;
}

}  // namespace

uint64_t UlpDistance(double a, double b) {
  const bool na = std::isnan(a), nb = std::isnan(b);
  if (na && nb) return 0;
  if (na || nb) return std::numeric_limits<uint64_t>::max();
  if (a == b) return 0;  // covers +0 vs -0 and equal infinities
  const int64_t ia = OrderedInt(a), ib = OrderedInt(b);
  // The subtraction cannot overflow meaningfully for finite/inf inputs, but
  // widen defensively for the -Inf vs +Inf extreme.
  const __int128 d = static_cast<__int128>(ia) - static_cast<__int128>(ib);
  const __int128 mag = d < 0 ? -d : d;
  const auto cap =
      static_cast<__int128>(std::numeric_limits<uint64_t>::max());
  return mag > cap ? std::numeric_limits<uint64_t>::max()
                   : static_cast<uint64_t>(mag);
}

bool NearlyEqualUlp(double a, double b, uint64_t max_ulp) {
  return UlpDistance(a, b) <= max_ulp;
}

// ---- Tensor kernels ----------------------------------------------------------

Matrix OracleMatMul(const Matrix& a, const Matrix& b) {
  KUC_CHECK_EQ(a.cols(), b.rows());
  Matrix c(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      real_t acc = 0.0;
      for (int64_t k = 0; k < a.cols(); ++k) acc += a.at(i, k) * b.at(k, j);
      c.at(i, j) = acc;
    }
  }
  return c;
}

Matrix OracleMatMulTransposedA(const Matrix& a, const Matrix& b) {
  KUC_CHECK_EQ(a.rows(), b.rows());
  Matrix c(a.cols(), b.cols());
  for (int64_t i = 0; i < a.cols(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      real_t acc = 0.0;
      for (int64_t k = 0; k < a.rows(); ++k) acc += a.at(k, i) * b.at(k, j);
      c.at(i, j) = acc;
    }
  }
  return c;
}

Matrix OracleMatMulTransposedB(const Matrix& a, const Matrix& b) {
  KUC_CHECK_EQ(a.cols(), b.cols());
  Matrix c(a.rows(), b.rows());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.rows(); ++j) {
      real_t acc = 0.0;
      for (int64_t k = 0; k < a.cols(); ++k) acc += a.at(i, k) * b.at(j, k);
      c.at(i, j) = acc;
    }
  }
  return c;
}

Matrix OracleAdd(const Matrix& a, const Matrix& b) {
  KUC_CHECK_EQ(a.rows(), b.rows());
  KUC_CHECK_EQ(a.cols(), b.cols());
  Matrix c = a;
  for (int64_t i = 0; i < c.rows(); ++i) {
    for (int64_t j = 0; j < c.cols(); ++j) c.at(i, j) += b.at(i, j);
  }
  return c;
}

Matrix OracleAxpy(real_t alpha, const Matrix& a, const Matrix& b) {
  KUC_CHECK_EQ(a.rows(), b.rows());
  KUC_CHECK_EQ(a.cols(), b.cols());
  Matrix c = a;
  for (int64_t i = 0; i < c.rows(); ++i) {
    for (int64_t j = 0; j < c.cols(); ++j) c.at(i, j) += alpha * b.at(i, j);
  }
  return c;
}

Matrix OracleScale(real_t alpha, const Matrix& a) {
  Matrix c = a;
  for (int64_t i = 0; i < c.rows(); ++i) {
    for (int64_t j = 0; j < c.cols(); ++j) c.at(i, j) *= alpha;
  }
  return c;
}

real_t OracleSum(const Matrix& a) {
  real_t s = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) s += a.data()[i];
  return s;
}

real_t OracleSquaredNorm(const Matrix& a) {
  real_t s = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) s += a.data()[i] * a.data()[i];
  return s;
}

Matrix OracleGather(const Matrix& a, const std::vector<int64_t>& idx) {
  Matrix out(static_cast<int64_t>(idx.size()), a.cols());
  for (int64_t k = 0; k < static_cast<int64_t>(idx.size()); ++k) {
    KUC_CHECK_GE(idx[k], 0);
    KUC_CHECK_LT(idx[k], a.rows());
    for (int64_t j = 0; j < a.cols(); ++j) out.at(k, j) = a.at(idx[k], j);
  }
  return out;
}

Matrix OracleSegmentSum(const Matrix& a, const std::vector<int64_t>& seg,
                        int64_t num_segments) {
  KUC_CHECK_EQ(a.rows(), static_cast<int64_t>(seg.size()));
  Matrix out(num_segments, a.cols());
  for (int64_t k = 0; k < a.rows(); ++k) {
    KUC_CHECK_GE(seg[k], 0);
    KUC_CHECK_LT(seg[k], num_segments);
    for (int64_t j = 0; j < a.cols(); ++j) out.at(seg[k], j) += a.at(k, j);
  }
  return out;
}

// ---- PPR ---------------------------------------------------------------------

OraclePprResult OraclePprPush(const Ckg& ckg, int64_t source, real_t alpha,
                              real_t epsilon) {
  KUC_CHECK_GE(source, 0);
  KUC_CHECK_LT(source, ckg.num_nodes());
  OraclePprResult result;
  auto& estimate = result.estimate;
  auto& residual = result.residual;
  residual[source] = 1.0;
  std::deque<int64_t> queue = {source};
  std::map<int64_t, bool> queued;
  queued[source] = true;

  while (!queue.empty()) {
    const int64_t v = queue.front();
    queue.pop_front();
    queued[v] = false;
    const int64_t deg = ckg.OutDegree(v);
    real_t& rv = residual[v];
    if (deg == 0) {
      // Dangling: the walk cannot leave, so all mass is absorbed in place.
      estimate[v] += rv;
      rv = 0.0;
      continue;
    }
    if (rv < epsilon * static_cast<real_t>(deg)) continue;
    const real_t mass = rv;
    estimate[v] += alpha * mass;
    rv = 0.0;
    const real_t push = (1.0 - alpha) * mass / static_cast<real_t>(deg);
    for (const int64_t w : ckg.OutNeighbors(v)) {
      real_t& rw = residual[w];
      rw += push;
      if (rw >= epsilon * static_cast<real_t>(ckg.OutDegree(w)) &&
          !queued[w]) {
        queued[w] = true;
        queue.push_back(w);
      }
    }
  }

  // Mass accounting in ascending node id order, for reproducible rounding.
  std::map<int64_t, real_t> ordered;
  for (const auto& [node, value] : estimate) ordered[node] += value;
  for (const auto& [node, value] : residual) ordered[node] += value;
  result.total_mass = 0.0;
  for (const auto& [node, value] : ordered) result.total_mass += value;
  return result;
}

OracleDensePpr OraclePprDense(const Ckg& ckg, int64_t source, real_t alpha,
                              int iterations) {
  KUC_CHECK_GE(source, 0);
  KUC_CHECK_LT(source, ckg.num_nodes());
  const int64_t n = ckg.num_nodes();
  OracleDensePpr out;
  out.estimate.assign(n, 0.0);
  out.residual.assign(n, 0.0);
  out.residual[source] = 1.0;
  std::vector<real_t> next(n, 0.0);
  for (int it = 0; it < iterations; ++it) {
    std::fill(next.begin(), next.end(), 0.0);
    for (int64_t v = 0; v < n; ++v) {
      const real_t rv = out.residual[v];
      if (rv == 0.0) continue;
      const int64_t deg = ckg.OutDegree(v);
      if (deg == 0) {
        out.estimate[v] += rv;  // absorbed, exactly like the push
        continue;
      }
      out.estimate[v] += alpha * rv;
      const real_t push = (1.0 - alpha) * rv / static_cast<real_t>(deg);
      for (const int64_t w : ckg.OutNeighbors(v)) next[w] += push;
    }
    std::swap(out.residual, next);
  }
  return out;
}

OraclePprResult OracleStreamRecompute(const DynamicCkg& graph, int64_t user,
                                      real_t alpha, real_t epsilon) {
  const Ckg rebuilt = graph.Rebuild();
  return OraclePprPush(rebuilt, rebuilt.UserNode(user), alpha, epsilon);
}

// ---- CKG structure -----------------------------------------------------------

std::vector<Edge> OracleCkgEdges(
    int64_t num_users, int64_t num_kg_relations,
    const std::vector<std::array<int64_t, 2>>& interactions,
    const std::vector<std::array<int64_t, 3>>& kg_triplets,
    const std::vector<std::array<int64_t, 3>>& user_triplets) {
  const int64_t num_base = 1 + num_kg_relations;
  std::vector<Edge> edges;
  for (const auto& [user, item] : interactions) {
    edges.push_back({user, Ckg::kInteractRelation, num_users + item});
    edges.push_back(
        {num_users + item, Ckg::kInteractRelation + num_base, user});
  }
  for (const auto& [head, rel, tail] : kg_triplets) {
    edges.push_back({num_users + head, rel + 1, num_users + tail});
    edges.push_back({num_users + tail, rel + 1 + num_base, num_users + head});
  }
  for (const auto& [head, rel, tail] : user_triplets) {
    edges.push_back({head, rel + 1, tail});
    edges.push_back({tail, rel + 1 + num_base, head});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.src != b.src) return a.src < b.src;
    if (a.rel != b.rel) return a.rel < b.rel;
    return a.dst < b.dst;
  });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

std::string DescribeCkgMismatch(const Ckg& ckg,
                                const std::vector<Edge>& edges) {
  std::ostringstream out;
  if (ckg.num_edges() != static_cast<int64_t>(edges.size())) {
    out << "edge count: ckg=" << ckg.num_edges() << " oracle=" << edges.size();
    return out.str();
  }
  // Equal totals, so the walk below never runs past `edges`.
  size_t at = 0;
  for (int64_t v = 0; v < ckg.num_nodes(); ++v) {
    const auto rels = ckg.OutRelations(v);
    const auto dsts = ckg.OutNeighbors(v);
    for (size_t k = 0; k < rels.size(); ++k, ++at) {
      const Edge got = {v, rels[k], dsts[k]};
      if (got != edges[at]) {
        out << "node " << v << " slot " << k << ": ckg=(" << got.rel << ","
            << got.dst << ") oracle=(" << edges[at].src << ","
            << edges[at].rel << "," << edges[at].dst << ")";
        return out.str();
      }
    }
  }
  return "";
}

// ---- Ranking / metrics -------------------------------------------------------

std::vector<int64_t> OracleTopN(const std::vector<double>& scores, int64_t n,
                                const std::vector<bool>* mask) {
  std::vector<int64_t> idx;
  for (int64_t i = 0; i < static_cast<int64_t>(scores.size()); ++i) {
    if (mask != nullptr && (*mask)[i]) continue;
    idx.push_back(i);
  }
  std::stable_sort(idx.begin(), idx.end(), TotalScoreOrder{&scores});
  if (static_cast<int64_t>(idx.size()) > n) idx.resize(n);
  return idx;
}

double OracleRecallAtN(const std::vector<int64_t>& ranked,
                       const std::unordered_set<int64_t>& test, int64_t n) {
  if (test.empty()) return 0.0;
  int64_t hits = 0;
  for (int64_t i = 0;
       i < std::min<int64_t>(n, static_cast<int64_t>(ranked.size())); ++i) {
    hits += test.count(ranked[i]) ? 1 : 0;
  }
  return static_cast<double>(hits) / static_cast<double>(test.size());
}

double OracleNdcgAtN(const std::vector<int64_t>& ranked,
                     const std::unordered_set<int64_t>& test, int64_t n) {
  if (test.empty()) return 0.0;
  double dcg = 0.0;
  for (int64_t i = 0;
       i < std::min<int64_t>(n, static_cast<int64_t>(ranked.size())); ++i) {
    if (test.count(ranked[i])) {
      dcg += std::log(2.0) / std::log(static_cast<double>(i) + 2.0);
    }
  }
  double ideal = 0.0;
  for (int64_t i = 0; i < std::min<int64_t>(static_cast<int64_t>(test.size()), n);
       ++i) {
    ideal += std::log(2.0) / std::log(static_cast<double>(i) + 2.0);
  }
  return ideal > 0.0 ? dcg / ideal : 0.0;
}

}  // namespace testing
}  // namespace kucnet
