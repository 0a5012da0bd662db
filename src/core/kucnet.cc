#include "core/kucnet.h"

#include <algorithm>
#include <memory>

#include "graph/subgraph.h"
#include "obs/trace.h"
#include "tensor/serialize.h"
#include "util/finite.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace kucnet {

namespace {

CompGraphOptions ToBuilderOptions(const KucnetOptions& options) {
  CompGraphOptions b;
  b.depth = options.depth;
  b.max_edges_per_node = options.sample_k;
  b.prune = options.prune;
  b.self_loops = true;
  return b;
}

Adam MakeOptimizer(const KucnetOptions& options) {
  AdamOptions a;
  a.learning_rate = options.learning_rate;
  a.weight_decay = options.weight_decay;
  return Adam(a);
}

}  // namespace

Kucnet::Kucnet(const Dataset* dataset, const Ckg* ckg, const PprTable* ppr,
               KucnetOptions options)
    : dataset_(dataset),
      ckg_(ckg),
      ppr_(ppr),
      options_(options),
      builder_(ckg, ToBuilderOptions(options)),
      sampler_(*dataset),
      train_items_(dataset->TrainItemsByUser()),
      attn_bias_("attn_bias", Matrix::Zeros(1, options.attention_dim)),
      readout_("readout", Matrix()),
      optimizer_(MakeOptimizer(options)),
      dropout_rng_(options.seed ^ 0xd20f00d) {
  KUC_CHECK(dataset != nullptr);
  KUC_CHECK(ckg != nullptr);
  if (options.prune == PruneMode::kPpr && options.sample_k > 0) {
    KUC_CHECK(ppr != nullptr) << "PPR pruning requires a PprTable";
  }
  Rng rng(options.seed);
  const int64_t d = options.hidden_dim;
  const int64_t da = options.attention_dim;
  const int64_t num_rel = ckg->num_relations() + 1;  // + self-loop
  layers_.reserve(options.depth);
  for (int32_t l = 0; l < options.depth; ++l) {
    const std::string suffix = "_l" + std::to_string(l + 1);
    LayerParams p{
        Parameter("w" + suffix, Matrix::GlorotUniform(d, d, rng)),
        Parameter("rel_emb" + suffix,
                  Matrix::RandomNormal(num_rel, d, 0.2, rng)),
        Parameter("attn_s" + suffix, Matrix::GlorotUniform(d, da, rng)),
        Parameter("attn_r" + suffix, Matrix::GlorotUniform(d, da, rng)),
        Parameter("attn_v" + suffix, Matrix::GlorotUniform(da, 1, rng)),
    };
    layers_.push_back(std::move(p));
  }
  readout_ = Parameter("readout", Matrix::GlorotUniform(d, 1, rng));
}

std::string Kucnet::name() const {
  if (!options_.use_attention) return "KUCNet-w.o.-Attn";
  switch (options_.prune) {
    case PruneMode::kRandom:
      return "KUCNet-random";
    case PruneMode::kNone:
      return "KUCNet-w.o.-PPR";
    case PruneMode::kPpr:
      return "KUCNet";
  }
  return "KUCNet";
}

std::vector<Parameter*> Kucnet::Params() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    params.push_back(&layer.w);
    params.push_back(&layer.rel_emb);
    if (options_.use_attention) {
      if (options_.attention_on_source) params.push_back(&layer.attn_s);
      params.push_back(&layer.attn_r);
      params.push_back(&layer.attn_v);
    }
  }
  if (options_.use_attention) params.push_back(&attn_bias_);
  params.push_back(&readout_);
  return params;
}

int64_t Kucnet::ParamCount() const {
  int64_t total = attn_bias_.ParamCount() * (options_.use_attention ? 1 : 0) +
                  readout_.ParamCount();
  for (const auto& layer : layers_) {
    total += layer.w.ParamCount() + layer.rel_emb.ParamCount();
    if (options_.use_attention) {
      if (options_.attention_on_source) total += layer.attn_s.ParamCount();
      total += layer.attn_r.ParamCount() + layer.attn_v.ParamCount();
    }
  }
  return total;
}

UserCompGraph Kucnet::BuildGraph(
    int64_t user, Rng* rng, const std::vector<ExcludedPair>& excluded) const {
  const int64_t user_node = ckg_->UserNode(user);
  if (options_.prune == PruneMode::kPpr && options_.sample_k > 0) {
    const NodeScoreFn score = ppr_->ScoreFn(user);
    return builder_.Build(user_node, &score, rng, excluded);
  }
  return builder_.Build(user_node, nullptr, rng, excluded);
}

Var Kucnet::Activate(Tape& tape, Var x) const {
  switch (options_.activation) {
    case KucnetActivation::kIdentity:
      return x;
    case KucnetActivation::kTanh:
      return tape.Tanh(x);
    case KucnetActivation::kRelu:
      return tape.Relu(x);
  }
  return x;
}

Var Kucnet::RunMessagePassing(
    Tape& tape, const UserCompGraph& graph, bool training, Rng* rng,
    std::vector<std::vector<double>>* attention_out) const {
  Var h;
  const Status status = TryRunMessagePassing(tape, graph, training, rng,
                                             ExecContext(), attention_out, &h);
  KUC_CHECK(status.ok()) << status.message();
  return h;
}

Status Kucnet::TryRunMessagePassing(
    Tape& tape, const UserCompGraph& graph, bool training, Rng* rng,
    const ExecContext& ctx,
    std::vector<std::vector<double>>* attention_out, Var* out) const {
  const int64_t d = options_.hidden_dim;
  // h^0: a single zero row for the user (Alg. 1 line 1).
  Var h = tape.Constant(Matrix::Zeros(1, d));
  for (size_t l = 0; l < graph.layers.size(); ++l) {
    KUC_TRACE_SPAN("kucnet.layer");
    KUC_RETURN_IF_ERROR(ctx.Check("forward"));
    const CompLayer& layer = graph.layers[l];
    const LayerParams& params = layers_[l];
    if (layer.num_edges() == 0) {
      h = tape.Constant(Matrix::Zeros(0, d));
      if (attention_out != nullptr) attention_out->emplace_back();
      continue;
    }
    Var h_src = tape.Gather(h, layer.src_index);
    Var h_rel = tape.GatherParam(const_cast<Parameter*>(&params.rel_emb),
                                 layer.rel);
    // Message input (h_{u:s}^{l-1} + h_r^l), Eq. (6).
    Var m = tape.Add(h_src, h_rel);
    Var transformed =
        tape.MatMul(m, tape.Param(const_cast<Parameter*>(&params.w)));
    Var messages = transformed;
    if (options_.use_attention) {
      // alpha = sigmoid(w_a^T relu(W_as h_s + W_ar h_r + b_a)), Sec. IV-B.
      Var rel_term = tape.MatMul(
          h_rel, tape.Param(const_cast<Parameter*>(&params.attn_r)));
      Var logits_in =
          options_.attention_on_source
              ? tape.Add(tape.MatMul(h_src, tape.Param(const_cast<Parameter*>(
                                                &params.attn_s))),
                         rel_term)
              : rel_term;
      Var pre = tape.AddRowBroadcast(
          logits_in, tape.Param(const_cast<Parameter*>(&attn_bias_)));
      Var alpha = tape.Sigmoid(tape.MatMul(
          tape.Relu(pre), tape.Param(const_cast<Parameter*>(&params.attn_v))));
      messages = tape.RowScale(transformed, alpha);
      if (attention_out != nullptr) {
        const Matrix& a = tape.value(alpha);
        std::vector<double> weights(a.rows());
        for (int64_t e = 0; e < a.rows(); ++e) weights[e] = a.at(e, 0);
        attention_out->push_back(std::move(weights));
      }
    } else if (attention_out != nullptr) {
      attention_out->emplace_back(layer.num_edges(), 1.0);
    }
    Var aggregated = tape.SegmentSum(
        messages, layer.dst_index,
        static_cast<int64_t>(layer.nodes.size()));
    h = Activate(tape, aggregated);
    if (training && options_.dropout > 0.0) {
      h = tape.Dropout(h, options_.dropout, /*training=*/true,
                       rng != nullptr ? *rng : dropout_rng_);
    }
  }
  *out = h;
  return Status::Ok();
}

KucnetForward Kucnet::Forward(int64_t user) const {
  KucnetForward result;
  const Status status = TryForward(user, ExecContext(), &result);
  KUC_CHECK(status.ok()) << status.message();
  return result;
}

Status Kucnet::TryForward(int64_t user, const ExecContext& ctx,
                          KucnetForward* out) const {
  KUC_RETURN_IF_ERROR(TryExtractGraph(user, ctx, out));
  return TryForwardOnGraph(ctx, out);
}

Status Kucnet::TryExtractGraph(int64_t user, const ExecContext& ctx,
                               KucnetForward* out) const {
  KUC_TRACE_SPAN("kucnet.extract");
  KucnetForward& result = *out;
  result = KucnetForward();
  Rng rng(options_.seed ^ (0x9e37 + static_cast<uint64_t>(user)));

  // Stage "ppr": fetching the pruning scores (a precomputed-table lookup
  // here; the push itself has its own in-loop checkpoints, see ppr/ppr.h).
  KUC_RETURN_IF_ERROR(ctx.Check("ppr"));
  const int64_t user_node = ckg_->UserNode(user);
  const bool use_ppr = options_.prune == PruneMode::kPpr && options_.sample_k > 0;
  if (use_ppr) {
    const NodeScoreFn score = ppr_->ScoreFn(user);
    KUC_RETURN_IF_ERROR(
        builder_.TryBuild(user_node, &score, &rng, {}, ctx, &result.graph));
  } else {
    KUC_RETURN_IF_ERROR(
        builder_.TryBuild(user_node, nullptr, &rng, {}, ctx, &result.graph));
  }
  return Status::Ok();
}

Status Kucnet::TryForwardOnGraph(const ExecContext& ctx,
                                 KucnetForward* inout) const {
  KUC_TRACE_SPAN("kucnet.forward");
  KucnetForward& result = *inout;
  Tape tape;
  std::vector<std::vector<double>> attention;
  Var h_final;
  const Status forward_status = TryRunMessagePassing(
      tape, result.graph, /*training=*/false, nullptr, ctx, &attention,
      &h_final);
  if (!forward_status.ok()) {
    result = KucnetForward();
    return forward_status;
  }
  Var scores = tape.MatMul(
      h_final, tape.Param(const_cast<Parameter*>(&readout_)));  // Eq. (7)
  const Matrix& s = tape.value(scores);

  result.item_scores.assign(dataset_->num_items, 0.0);
  for (int64_t item = 0; item < dataset_->num_items; ++item) {
    const int64_t idx = result.graph.FinalIndexOf(ckg_->ItemNode(item));
    if (idx >= 0) result.item_scores[item] = s.at(idx, 0);
  }

  // Attribute edges for interpretability.
  std::vector<int64_t> prev_nodes = {result.graph.user_node};
  for (size_t l = 0; l < result.graph.layers.size(); ++l) {
    const CompLayer& layer = result.graph.layers[l];
    for (int64_t e = 0; e < layer.num_edges(); ++e) {
      result.edges.push_back(
          {static_cast<int32_t>(l + 1), prev_nodes[layer.src_index[e]],
           layer.rel[e], layer.nodes[layer.dst_index[e]],
           l < attention.size() && !attention[l].empty() ? attention[l][e]
                                                         : 1.0});
    }
    prev_nodes = layer.nodes;
  }
  return Status::Ok();
}

void Kucnet::TryForwardMany(std::vector<KucnetForwardWork>* work,
                            bool graphs_extracted) const {
  if (work == nullptr || work->empty()) return;
  KUC_TRACE_SPAN("kucnet.forward_many");
  std::vector<KucnetForwardWork>& items = *work;
  const ExecContext unbounded;
  ParallelFor(static_cast<int64_t>(items.size()), [&](int64_t i) {
    KucnetForwardWork& item = items[i];
    const ExecContext& ctx = item.ctx != nullptr ? *item.ctx : unbounded;
    item.status = graphs_extracted ? TryForwardOnGraph(ctx, item.out)
                                   : TryForward(item.user, ctx, item.out);
  });
}

std::vector<double> Kucnet::ScoreItems(int64_t user) const {
  std::vector<double> scores = Forward(user).item_scores;
  // Evaluation boundary: a non-finite score here (diverged weights, kernel
  // overflow) would silently corrupt every metric computed downstream.
  KUC_CHECK_FINITE(scores.data(), static_cast<int64_t>(scores.size()),
                   "kucnet.ScoreItems");
  return scores;
}

std::pair<double, int64_t> Kucnet::ScorePairOnUiGraph(int64_t user,
                                                      int64_t item) const {
  const int64_t user_node = ckg_->UserNode(user);
  const int64_t item_node = ckg_->ItemNode(item);
  const LayeredEdges layered =
      ExtractUiComputationGraph(*ckg_, user_node, item_node, options_.depth);
  const int64_t edge_count = layered.TotalEdges();
  if (edge_count == 0) return {0.0, 0};
  UserCompGraph graph = FromLayeredEdges(layered.layers, user_node);
  Tape tape;
  Var h_final =
      RunMessagePassing(tape, graph, /*training=*/false, nullptr, nullptr);
  Var scores =
      tape.MatMul(h_final, tape.Param(const_cast<Parameter*>(&readout_)));
  const int64_t idx = graph.FinalIndexOf(item_node);
  const double score = idx >= 0 ? tape.value(scores).at(idx, 0) : 0.0;
  return {score, edge_count};
}

void Kucnet::SaveCheckpoint(const std::string& path) {
  SaveParameters(Params(), path);
}

void Kucnet::LoadCheckpoint(const std::string& path) {
  LoadParameters(Params(), path);
}

Var Kucnet::BuildLoss(Tape& tape, int64_t user,
                      const std::vector<int64_t>& pos,
                      const std::vector<int64_t>& neg) {
  KUC_CHECK_EQ(pos.size(), neg.size());
  Rng rng(options_.seed ^ (0x51ab + static_cast<uint64_t>(user)));
  UserCompGraph graph = BuildGraph(user, &rng, {});
  Var h_final =
      RunMessagePassing(tape, graph, /*training=*/false, nullptr, nullptr);
  Var all_scores = tape.MatMul(h_final, tape.Param(&readout_));
  std::vector<int64_t> pos_idx, neg_idx;
  for (size_t k = 0; k < pos.size(); ++k) {
    const int64_t pi = graph.FinalIndexOf(ckg_->ItemNode(pos[k]));
    const int64_t ni = graph.FinalIndexOf(ckg_->ItemNode(neg[k]));
    if (pi < 0 || ni < 0) continue;
    pos_idx.push_back(pi);
    neg_idx.push_back(ni);
  }
  if (pos_idx.empty()) return Var{};
  return tape.BprLoss(tape.Gather(all_scores, pos_idx),
                      tape.Gather(all_scores, neg_idx));
}

double Kucnet::TrainUser(int64_t user, Rng& rng, Tape& tape,
                         int64_t* pairs_out) {
  *pairs_out = 0;
  const auto& positives = train_items_[user];
  const int64_t n_pos = std::min<int64_t>(
      options_.positives_per_user, static_cast<int64_t>(positives.size()));
  std::vector<int64_t> pos_items;
  for (const int64_t k :
       rng.SampleWithoutReplacement(static_cast<int64_t>(positives.size()),
                                    n_pos)) {
    pos_items.push_back(positives[k]);
  }
  std::vector<ExcludedPair> excluded;
  if (options_.exclude_target_edges) {
    for (const int64_t i : pos_items) {
      excluded.push_back({ckg_->UserNode(user), ckg_->ItemNode(i)});
    }
  }
  UserCompGraph graph = BuildGraph(user, &rng, excluded);

  Var h_final =
      RunMessagePassing(tape, graph, /*training=*/true, &rng, nullptr);
  Var all_scores = tape.MatMul(h_final, tape.Param(&readout_));

  // Collect positive/negative pairs as gathers over all_scores. An
  // unreachable negative scores exactly 0 (Alg. 1 sets h = 0), so such
  // pairs still contribute softplus(0 - pos): the positive must beat the
  // zero floor that unreachable items sit on at evaluation time.
  std::vector<int64_t> pos_idx, neg_idx, pos_vs_zero_idx;
  for (const int64_t i : pos_items) {
    const int64_t pi = graph.FinalIndexOf(ckg_->ItemNode(i));
    if (pi < 0) continue;  // unreachable positive: h = 0, no signal
    const int64_t j = sampler_.Sample(user, rng);
    const int64_t ni = graph.FinalIndexOf(ckg_->ItemNode(j));
    if (ni >= 0) {
      pos_idx.push_back(pi);
      neg_idx.push_back(ni);
    } else {
      pos_vs_zero_idx.push_back(pi);
    }
  }
  if (pos_idx.empty() && pos_vs_zero_idx.empty()) return 0.0;
  Var loss;
  if (!pos_idx.empty()) {
    Var pos_scores = tape.Gather(all_scores, pos_idx);
    Var neg_scores = tape.Gather(all_scores, neg_idx);
    loss = tape.BprLoss(pos_scores, neg_scores);  // Eq. (14)
  }
  if (!pos_vs_zero_idx.empty()) {
    Var pos_scores = tape.Gather(all_scores, pos_vs_zero_idx);
    Var zeros = tape.Constant(
        Matrix::Zeros(static_cast<int64_t>(pos_vs_zero_idx.size()), 1));
    Var zero_loss = tape.BprLoss(pos_scores, zeros);
    loss = loss.valid() ? tape.Add(loss, zero_loss) : zero_loss;
  }
  tape.Backward(loss);
  *pairs_out = static_cast<int64_t>(pos_idx.size() + pos_vs_zero_idx.size());
  return tape.value(loss).at(0, 0);
}

double Kucnet::TrainEpoch(Rng& rng) {
  std::vector<int64_t> users;
  for (int64_t u = 0; u < dataset_->num_users; ++u) {
    if (!train_items_[u].empty()) users.push_back(u);
  }
  rng.Shuffle(users);
  auto params = Params();

  // Each user gets a private Rng seeded from (epoch salt, user id) so the
  // sampling / dropout streams do not depend on which worker runs which
  // user — training is bitwise identical at any thread count. The epoch salt
  // comes from the caller's rng, so epochs (and reruns with another seed)
  // still see fresh randomness.
  const uint64_t epoch_salt = rng.Next64();

  double total_loss = 0.0;
  int64_t total_pairs = 0;
  const int64_t batch =
      std::max<int64_t>(1, static_cast<int64_t>(options_.users_per_step));
  const int64_t num_users = static_cast<int64_t>(users.size());
  for (int64_t begin = 0; begin < num_users; begin += batch) {
    const int64_t end = std::min(num_users, begin + batch);
    const int64_t bsize = end - begin;
    // Phase 1 (parallel): independent forward/backward per user. Gradients
    // land in per-tape deferred buffers, not the shared parameters.
    std::vector<std::unique_ptr<Tape>> tapes(bsize);
    std::vector<double> losses(bsize, 0.0);
    std::vector<int64_t> pairs(bsize, 0);
    ParallelFor(bsize, [this, &users, &tapes, &losses, &pairs, begin,
                        epoch_salt](int64_t b) {
      const int64_t user = users[begin + b];
      Rng user_rng(epoch_salt ^
                   (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(user) + 1)));
      tapes[b] = std::make_unique<Tape>();
      tapes[b]->set_deferred_param_grads(true);
      losses[b] = TrainUser(user, user_rng, *tapes[b], &pairs[b]);
    });
    // Phase 2 (serial): flush gradients in batch order so the shared
    // accumulation order is fixed, then take one optimizer step.
    int64_t batch_pairs = 0;
    for (int64_t b = 0; b < bsize; ++b) {
      if (pairs[b] == 0) continue;
      tapes[b]->FlushParamGrads();
      total_loss += losses[b];
      batch_pairs += pairs[b];
    }
    total_pairs += batch_pairs;
    if (batch_pairs > 0) optimizer_.Step(params);
  }
  return total_pairs > 0 ? total_loss / static_cast<double>(total_pairs) : 0.0;
}

}  // namespace kucnet
