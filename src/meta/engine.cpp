#include "meta/engine.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "meta/population.h"
#include "meta/sampler.h"
#include "util/rng.h"

namespace metadock::meta {

namespace {

// Operation tags folded into RNG stream keys so every (spot, generation,
// phase, index) tuple draws from an independent stream.
enum StreamTag : std::uint64_t {
  kTagInit = 0x1717,
  kTagCombine = 0xC0B1,
  kTagImprove = 0x1111,
  kTagAccept = 0xACC6,
};

struct SpotState {
  const surface::Spot* spot = nullptr;
  Population s;     // S: the reference set (capacity 2*pop for Include's merge)
  Population scom;  // Scom: newly combined elements
};

/// Gathers pending poses from all spots into one staging buffer, evaluates
/// them in one batch, and scatters scores back via the supplied pointers.
/// The buffers are sized at construction; add() past that capacity throws
/// instead of growing, so add()/flush() allocate nothing.
class BatchCollector {
 public:
  BatchCollector(Evaluator& eval, RunResult& result, obs::Observer* obs, std::size_t max_batch)
      : eval_(eval), result_(result), obs_(obs), poses_(max_batch), outs_(max_batch),
        scores_(max_batch) {}

  void add(const scoring::Pose& pose, double* score_out) {
    if (size_ == poses_.size()) throw std::length_error("BatchCollector: batch capacity exceeded");
    poses_[size_] = pose;
    outs_[size_] = score_out;
    ++size_;
  }

  void flush() {
    if (size_ == 0) return;
    const std::size_t n = size_;
    eval_.evaluate(std::span<const scoring::Pose>(poses_).first(n),
                   std::span<double>(scores_).first(n));
    for (std::size_t i = 0; i < n; ++i) *outs_[i] = scores_[i];
    result_.evaluations += n;
    result_.batch_sizes.push_back(n);
    if (obs_ != nullptr) {
      obs_->metrics.histogram("meta.batch_size").record(static_cast<double>(n));
      obs_->metrics.counter("meta.evaluations").add(static_cast<double>(n));
    }
    size_ = 0;
  }

 private:
  Evaluator& eval_;
  RunResult& result_;
  obs::Observer* obs_;
  std::vector<scoring::Pose> poses_;
  std::vector<double*> outs_;
  std::vector<double> scores_;
  std::size_t size_ = 0;
};

/// RAII span over one engine phase (init / a generation), timed on the
/// evaluator's virtual clock and recorded on the host track.
class PhaseSpan {
 public:
  PhaseSpan(obs::Observer* obs, const Evaluator& eval, std::string name, double gen = -1.0)
      : obs_(obs), eval_(eval), name_(std::move(name)), gen_(gen) {
    if (obs_ != nullptr) start_s_ = eval_.virtual_seconds();
  }
  ~PhaseSpan() {
    if (obs_ == nullptr) return;
    obs::Span s;
    s.name = std::move(name_);
    s.category = "meta";
    s.device = obs::kHostTrack;
    s.start_ns = static_cast<std::uint64_t>(start_s_ * 1e9);
    s.dur_ns = static_cast<std::uint64_t>((eval_.virtual_seconds() - start_s_) * 1e9);
    if (gen_ >= 0.0) s.args = {{"generation", gen_}};
    obs_->tracer.record(std::move(s));
  }

 private:
  obs::Observer* obs_;
  const Evaluator& eval_;
  std::string name_;
  double gen_;
  double start_s_ = 0.0;
};

/// Rank-biased parent pick: u^2 biases toward the front (best) of the
/// sorted mating pool — "Elements are selected for combination from the
/// best ones".
std::size_t pick_parent(std::size_t pool_size, util::Xoshiro256& rng) {
  const double u = rng.uniform();
  return static_cast<std::size_t>(u * u * static_cast<double>(pool_size));
}

/// Short-term tabu memory: one fixed-capacity ring of recently-left
/// positions per improving slot, in one flat buffer sized per run, so an
/// accepted move is a modular-index write.
struct TabuRings {
  std::vector<geom::Vec3> entries;  // slots * cap
  std::vector<std::uint32_t> start;
  std::vector<std::uint32_t> count;
  std::size_t cap = 0;

  TabuRings(std::size_t slots, std::size_t capacity)
      : entries(slots * capacity), start(slots), count(slots), cap(capacity) {}

  void reset() {
    std::fill(start.begin(), start.end(), 0u);
    std::fill(count.begin(), count.end(), 0u);
  }

  [[nodiscard]] bool contains_within(std::size_t slot, const geom::Vec3& p, float r2) const {
    const geom::Vec3* ring = entries.data() + slot * cap;
    for (std::uint32_t i = 0; i < count[slot]; ++i) {
      if (ring[(start[slot] + i) % cap].distance2(p) < r2) return true;
    }
    return false;
  }

  /// Keeps the most recent `cap` positions (drop-oldest on overflow) —
  /// the same window the old push_back/erase-front vector maintained.
  void push(std::size_t slot, const geom::Vec3& p) {
    geom::Vec3* ring = entries.data() + slot * cap;
    if (count[slot] < cap) {
      ring[(start[slot] + count[slot]) % cap] = p;
      ++count[slot];
    } else {
      ring[start[slot]] = p;
      start[slot] = (start[slot] + 1) % cap;
    }
  }
};

}  // namespace

DockingProblem make_problem(const mol::Molecule& receptor, const mol::Molecule& ligand,
                            std::uint64_t seed, const surface::SpotParams& spot_params) {
  if (receptor.empty() || ligand.empty()) {
    throw std::invalid_argument("make_problem: receptor and ligand must be non-empty");
  }
  DockingProblem p;
  p.receptor = &receptor;
  p.ligand = &ligand;
  p.spots = surface::find_spots(receptor, spot_params);
  p.seed = seed;
  p.ligand_radius = ligand.radius_about_centroid();
  return p;
}

MetaheuristicEngine::MetaheuristicEngine(MetaheuristicParams params, obs::Observer* observer)
    : params_(std::move(params)), obs_(observer) {
  if (params_.population_per_spot <= 0) {
    throw std::invalid_argument("MetaheuristicEngine: population_per_spot must be positive");
  }
  if (params_.generations <= 0) {
    throw std::invalid_argument("MetaheuristicEngine: generations must be positive");
  }
  if (params_.select_fraction <= 0.0 || params_.select_fraction > 1.0) {
    throw std::invalid_argument("MetaheuristicEngine: select_fraction must be in (0,1]");
  }
  if (params_.improve_fraction < 0.0 || params_.improve_fraction > 1.0) {
    throw std::invalid_argument("MetaheuristicEngine: improve_fraction must be in [0,1]");
  }
}

RunResult MetaheuristicEngine::run(const DockingProblem& problem, Evaluator& eval,
                                   std::span<const std::size_t> spot_indices) const {
  if (problem.receptor == nullptr || problem.ligand == nullptr) {
    throw std::invalid_argument("MetaheuristicEngine::run: problem not initialized");
  }
  std::vector<std::size_t> all;
  if (spot_indices.empty()) {
    all.resize(problem.spots.size());
    std::iota(all.begin(), all.end(), 0);
    spot_indices = all;
  }

  RunResult result;
  const auto pop = static_cast<std::size_t>(params_.population_per_spot);
  const auto improve_count =
      static_cast<std::size_t>(std::lround(params_.improve_fraction * static_cast<double>(pop)));

  // Every buffer the loop touches is sized here, ONCE, before the
  // generation loop; the loop itself only writes into them.
  std::vector<SpotState> states;
  states.reserve(spot_indices.size());
  for (std::size_t idx : spot_indices) {
    if (idx >= problem.spots.size()) {
      throw std::out_of_range("MetaheuristicEngine::run: spot index out of range");
    }
    states.push_back({&problem.spots[idx], Population(2 * pop), Population(pop)});
  }

  // The improve-phase slots.
  const std::size_t improve_slots = states.size() * improve_count;
  std::vector<Individual> proposals(improve_slots);
  const std::size_t tabu_slots = params_.accept == AcceptRule::kTabu ? improve_slots : 0;
  std::vector<Individual> slot_best(tabu_slots);
  TabuRings tabu(tabu_slots, static_cast<std::size_t>(std::max(1, params_.tabu_tenure)));

  // Evaluation batches never exceed one pose per individual per spot.
  BatchCollector batch(eval, result, obs_, states.size() * pop);
  result.batch_sizes.reserve(
      1 + static_cast<std::size_t>(params_.generations) *
              (1 + static_cast<std::size_t>(std::max(0, params_.improve_steps))));

  // ---- Initialize(S) ----
  {
    PhaseSpan span(obs_, eval, "initialize");
    for (SpotState& st : states) {
      st.s.set_size(pop);
      for (std::size_t i = 0; i < pop; ++i) {
        auto rng = util::stream(problem.seed, st.spot->id, kTagInit, i);
        st.s[i].pose = initial_pose(*st.spot, problem.ligand_radius, rng);
        batch.add(st.s[i].pose, &st.s[i].score);
      }
    }
    batch.flush();
  }
  for (SpotState& st : states) st.s.sort_by_score();

  // ---- while no End(S) ----
  // metadock-lint: hot-begin(generation-loop) — MDL007 forbids heap
  // growth in here; every buffer is sized above.
  double temperature = params_.annealing_t0;
  for (int gen = 0; gen < params_.generations; ++gen) {
    PhaseSpan gen_span(obs_, eval, "generation", static_cast<double>(gen));
    if (params_.population_based) {
      // ---- Select(S, Ssel) ----  S is kept sorted; the mating pool is its
      // best select_fraction prefix.
      const auto pool = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::lround(params_.select_fraction *
                                                  static_cast<double>(pop))));

      // ---- Combine(Ssel, Scom) ----
      for (SpotState& st : states) {
        st.scom.set_size(pop);
        for (std::size_t i = 0; i < pop; ++i) {
          auto rng = util::stream(problem.seed, st.spot->id, kTagCombine, gen, i);
          const scoring::Pose& pa = st.s[pick_parent(pool, rng)].pose;
          const scoring::Pose& pb = st.s[pick_parent(pool, rng)].pose;
          st.scom[i].pose = combine_poses(pa, pb, params_.combine_mutation_t,
                                          params_.combine_mutation_r, rng);
          batch.add(st.scom[i].pose, &st.scom[i].score);
        }
      }
      batch.flush();

      // The improved subset is the best improve_count of Scom (its sorted
      // prefix — slot k improves scom[k]).
      for (SpotState& st : states) st.scom.sort_by_score();
    } else {
      // Neighbourhood metaheuristic (M4): Improve works on S directly.
      for (SpotState& st : states) st.scom.copy_from(st.s);
    }

    // ---- Improve(Scom) ---- hill climbing / annealing / tabu search on
    // the chosen set.
    if (!states.empty() && improve_count > 0 && params_.improve_steps > 0) {
      // Tabu memory per improving slot: positions we recently left (the
      // short-term memory), plus the best individual visited so far — tabu
      // search walks to the best *non-tabu* neighbour even when it is
      // worse, so the incumbent best is tracked separately and restored
      // after the walk.  Reset every generation; keyed per spot, so subset
      // invariance is preserved.
      if (params_.accept == AcceptRule::kTabu) {
        tabu.reset();
        for (std::size_t si = 0; si < states.size(); ++si) {
          for (std::size_t k = 0; k < improve_count; ++k) {
            slot_best[si * improve_count + k] = states[si].scom[k];
          }
        }
      }
      for (int step = 0; step < params_.improve_steps; ++step) {
        for (std::size_t si = 0; si < states.size(); ++si) {
          SpotState& st = states[si];
          for (std::size_t k = 0; k < improve_count; ++k) {
            auto rng =
                util::stream(problem.seed, st.spot->id, kTagImprove, gen, step, k);
            Individual& prop = proposals[si * improve_count + k];
            prop.pose = perturb_pose(st.scom[k].pose, params_.ls_translate,
                                     params_.ls_rotate, rng);
            batch.add(prop.pose, &prop.score);
          }
        }
        batch.flush();
        for (std::size_t si = 0; si < states.size(); ++si) {
          SpotState& st = states[si];
          for (std::size_t k = 0; k < improve_count; ++k) {
            const std::size_t slot = si * improve_count + k;
            const double cur_score = st.scom[k].score;
            const Individual& prop = proposals[slot];
            bool accept = prop.score < cur_score;
            if (params_.accept == AcceptRule::kAnnealing && !accept) {
              auto rng =
                  util::stream(problem.seed, st.spot->id, kTagAccept, gen, step, k);
              const double d = prop.score - cur_score;
              accept = rng.uniform() < std::exp(-d / std::max(temperature, 1e-9));
            } else if (params_.accept == AcceptRule::kTabu) {
              // Walk to the neighbour even when worse, unless it re-enters
              // recently visited territory; aspiration overrides tabu when
              // the move beats the slot's incumbent best.
              const float r2 = params_.tabu_radius * params_.tabu_radius;
              const bool is_tabu = tabu.contains_within(slot, prop.pose.position, r2);
              accept = !is_tabu || prop.score < slot_best[slot].score;
            }
            if (accept) {
              if (params_.accept == AcceptRule::kTabu) {
                tabu.push(slot, st.scom[k].pose.position);
                if (prop.score < slot_best[slot].score) slot_best[slot] = prop;
              }
              st.scom[k] = prop;
            }
          }
        }
        temperature *= params_.annealing_cooling;
      }
      // Tabu walks may end somewhere worse than they passed through;
      // restore each slot's incumbent best before Include.
      if (params_.accept == AcceptRule::kTabu) {
        for (std::size_t si = 0; si < states.size(); ++si) {
          for (std::size_t k = 0; k < improve_count; ++k) {
            const Individual& best = slot_best[si * improve_count + k];
            if (best.score < states[si].scom[k].score) states[si].scom[k] = best;
          }
        }
      }
    }

    // ---- Include(Scom, S) ---- elitist merge, keep the best |S|.
    for (SpotState& st : states) {
      if (params_.population_based) {
        st.s.merge_keep_best(st.scom, pop);
      } else {
        // "M4 applies only one step, and so there is no selection of
        // elements after improving": the improved set replaces S.
        st.s.copy_from(st.scom);
        st.s.sort_by_score();
      }
      st.scom.set_size(0);
    }
  }
  // metadock-lint: hot-end

  // Collect per-spot winners and the global best.
  result.spot_results.reserve(states.size());
  for (const SpotState& st : states) {
    SpotResult sr;
    sr.spot_id = st.spot->id;
    sr.best = st.s[0];
    if (result.best_spot_id < 0 || better(sr.best, result.best)) {
      result.best = sr.best;
      result.best_spot_id = sr.spot_id;
    }
    result.spot_results.push_back(sr);
  }
  return result;
}

}  // namespace metadock::meta
