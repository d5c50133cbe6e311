// adaptive_game: the paper's own workload. The Fig. 3 bisection adversary
// plays ContinuousAdaptiveGame (Fig. 2) over BigUint elements of a prefix
// family with ln N = 200 against two samplers, alternating by trial:
//
//   reservoir(k = 4), far below the Theorem 1.3 threshold: it must lose
//     (leave eps = 0.5 at some checkpoint) in every trial;
//   robust_sample sized by Theorem 1.2 (eps 0.5, delta 0.2): it must stay
//     an eps-approximation at every checkpoint in at least a 1 - delta
//     share of trials.
//
// Checks follow Theorem 1.4's geometric schedule. Each trial is played the
// way attacklab's PlayOne plays it — AnySampler and the registry adversary
// driven by RunContinuousAdaptiveGame — with thin wrappers around the
// adversary, the sampler and the discrepancy function so the traced run
// can time each. Trials run on 4 worker threads. No pipeline, wire or net
// code runs here; the discrepancy checks do most of the work.
//
// Seen from a user, a checkpoint verdict is this workload's answer: its
// latency is query_p*_us, the time between verdicts of one game is
// fresh_p*_ms (how stale the "still an eps-approximation" answer gets),
// and one game round is one stream element (elems_per_s). A trial's
// set-up is the program's: creating the sampler, the adversary and the
// discrepancy function (setup_s).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "attacklab/adversary_registry.h"
#include "attacklab/any_sampler.h"
#include "attacklab/game_driver.h"
#include "attacklab/game_spec.h"
#include "core/adversarial_game.h"
#include "core/big_uint.h"
#include "core/random.h"
#include "harness.h"
#include "stats.h"

namespace e2ebench {
namespace {

namespace rs = robust_sampling;
using Elem = rs::BigUint;

constexpr size_t kThreads = 4;
constexpr size_t kEpisodes = 4;
constexpr size_t kRounds = 20'000;
constexpr double kRobustDelta = 0.2;

rs::GameSpec Spec(bool robust) {
  rs::GameSpec spec;
  spec.adversary = "bisection";
  spec.n = kRounds;
  spec.eps = 0.5;
  spec.schedule = rs::ScheduleKind::kGeometric;
  spec.sketch.log_universe = 200.0;
  if (robust) {
    spec.sketch.kind = "robust_sample";
    spec.sketch.eps = 0.5;
    spec.sketch.delta = kRobustDelta;
  } else {
    spec.sketch.kind = "reservoir";
    spec.sketch.capacity = 4;
  }
  spec.threads = kThreads;
  return spec;
}

/// Forwards to the registry adversary, timing each call.
class TimedAdversary final : public rs::Adversary<Elem> {
 public:
  TimedAdversary(rs::Adversary<Elem>& inner, uint64_t trial)
      : inner_(inner), trial_(trial) {}

  Elem NextElement(std::span<const Elem> sample_before,
                   size_t round) override {
    ScopedSpan span(SpanKind::kAdversaryNext, trial_);
    return inner_.NextElement(sample_before, round);
  }
  void Observe(std::span<const Elem> sample_after, bool kept,
               size_t round) override {
    ScopedSpan span(SpanKind::kAdversaryObserve, trial_);
    inner_.Observe(sample_after, kept, round);
  }
  std::string Name() const override { return inner_.Name(); }
  bool Exhausted() const override { return inner_.Exhausted(); }

 private:
  rs::Adversary<Elem>& inner_;
  uint64_t trial_;
};

/// The StreamSampler surface of an AnySampler, timing Insert.
class TimedSampler {
 public:
  TimedSampler(rs::AnySampler<Elem>& inner, uint64_t trial)
      : inner_(inner), trial_(trial) {}

  void Insert(const Elem& x) {
    ScopedSpan span(SpanKind::kCoreSamplerInsert, trial_);
    inner_.Insert(x);
  }
  std::span<const Elem> sample() const { return inner_.sample(); }
  size_t stream_size() const { return inner_.stream_size(); }
  bool last_kept() const { return inner_.last_kept(); }

 private:
  rs::AnySampler<Elem>& inner_;
  uint64_t trial_;
};

/// Trial outcomes, per worker and summed.
struct TrialCounts {
  uint64_t trials = 0;
  uint64_t rounds = 0;
  uint64_t reservoir_trials = 0;
  uint64_t reservoir_wins = 0;
  uint64_t robust_trials = 0;
  uint64_t robust_wins = 0;

  void Add(const TrialCounts& other) {
    trials += other.trials;
    rounds += other.rounds;
    reservoir_trials += other.reservoir_trials;
    reservoir_wins += other.reservoir_wins;
    robust_trials += other.robust_trials;
    robust_wins += other.robust_wins;
  }
};

/// One worker thread's measurements in one episode.
struct WorkerLog {
  std::vector<double> check_us;  // verdict latency
  std::vector<double> fresh_ms;  // time between verdicts of one game
  std::vector<double> setup_s;   // per trial: the program's set-up calls
  TrialCounts counts;
  uint64_t end_ns = 0;  // when the worker finished its last trial
};

void PlayTrial(const rs::GameSpec& spec, const rs::CheckpointSchedule& schedule,
               uint64_t trial, uint64_t seed, WorkerLog* log) {
  ScopedSpan span(SpanKind::kAttacklabTrial, trial);
  const uint64_t setup_start = NowNs();
  rs::AnySampler<Elem> sampler =
      rs::AnySampler<Elem>::FromConfig(spec.sketch, seed);
  rs::AnyAdversary<Elem> adversary =
      rs::AdversaryRegistry<Elem>::Global().Create(spec,
                                                   rs::MixSeed(seed, 1));
  const rs::DiscrepancyFn<Elem> discrepancy =
      rs::MakeDiscrepancyFn<Elem>(spec.discrepancy);
  log->setup_s.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);
  TimedSampler timed_sampler(sampler, trial);
  TimedAdversary timed_adversary(adversary, trial);
  uint64_t last_verdict = NowNs();
  const rs::DiscrepancyFn<Elem> timed_discrepancy =
      [&](const std::vector<Elem>& stream, const std::vector<Elem>& sample) {
        const uint64_t start = NowNs();
        double d = 0.0;
        {
          ScopedSpan check(SpanKind::kSetsystemDiscrepancy, trial);
          d = discrepancy(stream, sample);
        }
        const uint64_t end = NowNs();
        log->check_us.push_back(static_cast<double>(end - start) / 1e3);
        log->fresh_ms.push_back(static_cast<double>(end - last_verdict) /
                                1e6);
        last_verdict = end;
        return d;
      };
  const rs::ContinuousGameResult<Elem> result =
      rs::RunContinuousAdaptiveGame<Elem>(timed_sampler, timed_adversary,
                                          spec.n, timed_discrepancy, spec.eps,
                                          schedule);
  TrialCounts& counts = log->counts;
  ++counts.trials;
  counts.rounds += spec.n;
  if (spec.sketch.kind == "reservoir") {
    ++counts.reservoir_trials;
    counts.reservoir_wins += result.continuously_approximating;
  } else {
    ++counts.robust_trials;
    counts.robust_wins += result.continuously_approximating;
  }
}

}  // namespace

WorkloadResult RunAdaptiveGame(const WorkloadOptions& options) {
  WorkloadResult result;
  std::vector<double> setup_s;  // per trial
  std::vector<double> peak_rss_mib;
  std::vector<std::vector<double>> check_us;  // per episode
  std::vector<std::vector<double>> fresh_ms;  // per episode
  TrialCounts all;
  uint64_t checks = 0;
  double worker_s = 0.0;  // summed over workers
  const uint64_t episode_ns =
      static_cast<uint64_t>(options.seconds * 1e9 / kEpisodes);
  std::atomic<uint64_t> next_trial{0};
  for (size_t episode = 0; episode < kEpisodes; ++episode) {
    ResetPeakRss();
    const rs::GameSpec specs[2] = {Spec(false), Spec(true)};
    const rs::CheckpointSchedule schedules[2] = {rs::BuildSchedule(specs[0]),
                                                 rs::BuildSchedule(specs[1])};
    std::atomic<size_t> ready{0};
    std::atomic<bool> go{false};
    uint64_t deadline = 0;
    std::vector<WorkerLog> episode_logs(kThreads);
    std::vector<std::thread> workers;
    for (size_t w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        TraceThread trace(options.tracer, "ep" + std::to_string(episode) +
                                              "/game-" + std::to_string(w));
        {
          ScopedSpan wait(SpanKind::kBenchWait, 0);
          ready.fetch_add(1, std::memory_order_acq_rel);
          while (!go.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        }
        while (NowNs() < deadline) {
          const uint64_t trial = next_trial.fetch_add(1);
          const rs::GameSpec& spec = specs[trial % 2];
          PlayTrial(spec, schedules[trial % 2], trial,
                    rs::MixSeed(options.seed, trial), &episode_logs[w]);
        }
        episode_logs[w].end_ns = NowNs();
      });
    }
    while (ready.load(std::memory_order_acquire) < kThreads) {
      std::this_thread::yield();
    }
    const uint64_t start = NowNs();
    deadline = start + episode_ns;
    go.store(true, std::memory_order_release);
    for (std::thread& t : workers) t.join();
    // Each worker is timed until its own last trial ends: the others
    // idling while the last trial of an episode finishes is not game work.
    std::vector<double>& episode_checks = check_us.emplace_back();
    std::vector<double>& episode_fresh = fresh_ms.emplace_back();
    for (const WorkerLog& log : episode_logs) {
      worker_s += static_cast<double>(log.end_ns - start) / 1e9;
      episode_checks.insert(episode_checks.end(), log.check_us.begin(),
                            log.check_us.end());
      episode_fresh.insert(episode_fresh.end(), log.fresh_ms.begin(),
                           log.fresh_ms.end());
      all.Add(log.counts);
      checks += log.check_us.size();
      setup_s.insert(setup_s.end(), log.setup_s.begin(), log.setup_s.end());
    }
    peak_rss_mib.push_back(PeakRssMib());
  }

  // The separation: every undersized-reservoir trial lost, and the
  // Theorem 1.2-sized sample won at least a 1 - delta share.
  result.attempted += all.trials + checks + 1;
  if (all.reservoir_wins > 0) {
    result.failed += all.reservoir_wins;
    result.problems.push_back(std::to_string(all.reservoir_wins) + " of " +
                              std::to_string(all.reservoir_trials) +
                              " reservoir(k=4) trials stayed within eps");
  }
  const double robust_share =
      all.robust_trials == 0 ? 0.0
                             : static_cast<double>(all.robust_wins) /
                                   static_cast<double>(all.robust_trials);
  if (all.robust_trials == 0 || robust_share < 1.0 - kRobustDelta) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "robust_sample won %.3f of %llu trials, below 1 - delta",
                  robust_share,
                  static_cast<unsigned long long>(all.robust_trials));
    result.Fail(buf);
  }
  std::printf("separation: reservoir(k=4) won %llu/%llu, robust_sample won "
              "%llu/%llu\n",
              static_cast<unsigned long long>(all.reservoir_wins),
              static_cast<unsigned long long>(all.reservoir_trials),
              static_cast<unsigned long long>(all.robust_wins),
              static_cast<unsigned long long>(all.robust_trials));

  // kThreads workers each busy for worker_s / kThreads on average.
  const double busy_s = worker_s / kThreads;
  const double rounds_per_s = static_cast<double>(all.rounds) / busy_s;
  result.primary_rate = rounds_per_s;
  // Creating the robust_sample sampler takes either ~2 us or ~20 us,
  // depending on the state the trial before left the allocator in. The
  // share of slow ones varies, which swings a median between the modes,
  // so the figure is the mean of all trials without the slowest 1%
  // (preempted ones).
  std::sort(setup_s.begin(), setup_s.end());
  const size_t kept = std::max<size_t>(1, setup_s.size() * 99 / 100);
  double setup_sum = 0.0;
  for (size_t i = 0; i < kept && i < setup_s.size(); ++i) {
    setup_sum += setup_s[i];
  }
  result.e2e.Set("setup_s", setup_sum / static_cast<double>(kept),
                 "per trial: sampler, adversary and discrepancy creation; "
                 "mean of the fastest " + std::to_string(kept) + " of " +
                     std::to_string(setup_s.size()) + " trials");
  result.e2e.Set("elems_per_s", rounds_per_s,
                 "one adversary round inserts one element");
  result.e2e.Set("queries_per_s",
                 static_cast<double>(checks) / busy_s,
                 "checkpoint verdicts (Theorem 1.4 schedule)");
  SetLatencyMetrics(&result, "query", "us", check_us);
  SetLatencyMetrics(&result, "fresh", "ms", fresh_ms);
  result.e2e.Set("peak_rss_mib", Median(peak_rss_mib),
                 "median of per-episode peaks");

  result.layer.Set("attacklab.trials", static_cast<double>(all.trials));
  result.layer.Set("game_rounds_per_s", rounds_per_s,
                   std::to_string(all.rounds) + " rounds over " +
                       std::to_string(all.trials) + " trials");
  return result;
}

}  // namespace e2ebench
