#include "core/diversity.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "geo/angle.h"
#include "util/math.h"

namespace rdbsc::core {
namespace {

using geo::kTwoPi;
using util::ClampConfidence;
using util::EntropyTerm;

// Entropy of a two-way split a : (1-a); the diversity of a two-ray world.
double TwoWayEntropy(double a) { return EntropyTerm(a) + EntropyTerm(1.0 - a); }

// True when no remaining term of a row of the M_SD / M_TD sums can change
// `expected`. Every later term of the row whose first divider has
// confidence c is EntropyTerm(.) * c * c_k * between_absent with
// |EntropyTerm| <= 1/e, c_k <= 1 and a non-increasing between_absent, so by
// monotone rounding it is at most 0.5 * c * between_absent. Below
// expected * 2^-55 (under half the spacing of doubles on either side of a
// normal `expected`) adding it returns `expected` unchanged, so ending the
// row there gives the same bits as summing it out. Rows past a few
// near-certain dividers end after O(1) terms instead of O(r). The test
// only runs once between_absent < 2^-40 (a cheap filter; it can only
// delay the exit), which keeps short rows at their old cost.
bool RestOfRowVanishes(double expected, double c, double between_absent) {
  return between_absent < 0x1p-40 && expected > 0x1p-960 &&
         0.5 * c * between_absent < expected * 0x1p-55;
}

// Observations sorted by approach angle, with circular gap g[i] from ray i
// to ray i+1 (cyclic).
struct AngularLayout {
  std::vector<double> angle;
  std::vector<double> confidence;
  std::vector<double> gap;
};

AngularLayout SortByAngle(const std::vector<Observation>& obs) {
  const size_t r = obs.size();
  // (normalized angle, observation index), sorted by the normalized angle
  // the gaps are measured between: raw angles from different
  // [k*2pi, (k+1)*2pi) windows would interleave the ring.
  std::vector<std::pair<double, size_t>> order(r);
  for (size_t i = 0; i < r; ++i) {
    order[i] = {geo::NormalizeAngle(obs[i].angle), i};
  }
  std::sort(order.begin(), order.end(),
            [](const std::pair<double, size_t>& a,
               const std::pair<double, size_t>& b) {
              return a.first < b.first;
            });
  AngularLayout layout;
  layout.angle.reserve(r);
  layout.confidence.reserve(r);
  for (const auto& [angle, i] : order) {
    layout.angle.push_back(angle);
    layout.confidence.push_back(ClampConfidence(obs[i].confidence));
  }
  // Consecutive gaps, then the wrap gap as the rest of the circle, so the
  // gaps sum to 2*pi (all-equal angles give one 2*pi wrap).
  layout.gap.resize(r);
  double sum = 0.0;
  for (size_t i = 0; i + 1 < r; ++i) {
    layout.gap[i] = layout.angle[i + 1] - layout.angle[i];
    sum += layout.gap[i];
  }
  if (r > 0) layout.gap[r - 1] = kTwoPi - sum;
  return layout;
}

// Observations sorted by arrival, with the virtual boundary dividers at
// `start` and `end` prepended/appended (probability 1 each).
struct TemporalLayout {
  std::vector<double> time;  // size r + 2, time[0] = start, back() = end
  std::vector<double> confidence;
};

TemporalLayout SortByArrival(const std::vector<Observation>& obs,
                             double start, double end) {
  TemporalLayout layout;
  layout.time.reserve(obs.size() + 2);
  layout.confidence.reserve(obs.size() + 2);
  layout.time.push_back(start);
  layout.confidence.push_back(1.0);
  std::vector<size_t> order(obs.size());
  for (size_t i = 0; i < obs.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&obs](size_t a, size_t b) {
    return obs[a].arrival < obs[b].arrival;
  });
  for (size_t i : order) {
    layout.time.push_back(std::clamp(obs[i].arrival, start, end));
    layout.confidence.push_back(ClampConfidence(obs[i].confidence));
  }
  layout.time.push_back(end);
  layout.confidence.push_back(1.0);
  return layout;
}

}  // namespace

Observation MakeObservation(const Task& t, const Worker& w, double now,
                            ArrivalPolicy policy) {
  Observation obs;
  obs.angle = ApproachAngle(t, w);
  obs.arrival = std::clamp(ArrivalTime(w, t, now, policy), t.start, t.end);
  obs.confidence = w.confidence;
  return obs;
}

double SpatialDiversity(const std::vector<double>& angles) {
  const size_t r = angles.size();
  if (r < 2) return 0.0;
  std::vector<double> sorted(angles);
  for (double& a : sorted) a = geo::NormalizeAngle(a);
  std::sort(sorted.begin(), sorted.end());
  double entropy = 0.0;
  double sum = 0.0;
  for (size_t i = 0; i + 1 < r; ++i) {
    double gap = sorted[i + 1] - sorted[i];
    sum += gap;
    entropy += EntropyTerm(gap / kTwoPi);
  }
  entropy += EntropyTerm((kTwoPi - sum) / kTwoPi);
  return entropy;
}

double TemporalDiversity(const std::vector<double>& arrivals, double start,
                         double end) {
  assert(end > start);
  if (arrivals.empty()) return 0.0;
  std::vector<double> sorted(arrivals);
  std::sort(sorted.begin(), sorted.end());
  const double duration = end - start;
  double entropy = 0.0;
  double prev = start;
  for (double t : sorted) {
    double clamped = std::clamp(t, prev, end);
    entropy += EntropyTerm((clamped - prev) / duration);
    prev = clamped;
  }
  entropy += EntropyTerm((end - prev) / duration);
  return entropy;
}

double Std(const Task& task, const std::vector<Observation>& obs) {
  std::vector<double> angles;
  std::vector<double> arrivals;
  angles.reserve(obs.size());
  arrivals.reserve(obs.size());
  for (const Observation& o : obs) {
    angles.push_back(o.angle);
    arrivals.push_back(o.arrival);
  }
  return task.beta * SpatialDiversity(angles) +
         (1.0 - task.beta) * TemporalDiversity(arrivals, task.start, task.end);
}

double ExpectedSpatialDiversity(const std::vector<Observation>& obs) {
  const size_t r = obs.size();
  if (r < 2) return 0.0;
  AngularLayout layout = SortByAngle(obs);

  // M_SD[j][k] summed on the fly (Eq. 9): for each ordered pair (j, k) of
  // rays, the entropy of the angle swept CCW from j to k, weighted by the
  // probability that j and k are both realized and everything strictly
  // between them is not -- i.e. the probability that (j, k) are adjacent
  // rays in the realized world.
  double expected = 0.0;
  for (size_t j = 0; j < r; ++j) {
    double between_absent = 1.0;  // prod of (1 - p_x) for x strictly between
    double swept = 0.0;           // angle from ray j to ray k
    for (size_t step = 1; step < r; ++step) {
      if (RestOfRowVanishes(expected, layout.confidence[j], between_absent)) {
        break;
      }
      size_t k = (j + step) % r;
      swept += layout.gap[(j + step - 1) % r];
      expected += EntropyTerm(swept / kTwoPi) * layout.confidence[j] *
                  layout.confidence[k] * between_absent;
      between_absent *= 1.0 - layout.confidence[k];
    }
  }
  return expected;
}

double ExpectedTemporalDiversity(const std::vector<Observation>& obs,
                                 double start, double end) {
  assert(end > start);
  if (obs.empty()) return 0.0;
  TemporalLayout layout = SortByArrival(obs, start, end);
  const double duration = end - start;
  const size_t b = layout.time.size();  // r + 2 boundary candidates

  // M_TD summed on the fly (Eq. 10): a sub-interval [time[a], time[k]]
  // materializes exactly when both of its dividers are realized and every
  // divider strictly between them is not. The valid-period endpoints are
  // always-present dividers (confidence 1).
  double expected = 0.0;
  for (size_t a = 0; a + 1 < b; ++a) {
    double between_absent = 1.0;
    for (size_t k = a + 1; k < b; ++k) {
      if (RestOfRowVanishes(expected, layout.confidence[a], between_absent)) {
        break;
      }
      double len = layout.time[k] - layout.time[a];
      expected += EntropyTerm(len / duration) * layout.confidence[a] *
                  layout.confidence[k] * between_absent;
      between_absent *= 1.0 - layout.confidence[k];
    }
  }
  return expected;
}

double ExpectedStd(const Task& task, const std::vector<Observation>& obs) {
  double spatial =
      task.beta > 0.0 ? ExpectedSpatialDiversity(obs) : 0.0;
  double temporal =
      task.beta < 1.0
          ? ExpectedTemporalDiversity(obs, task.start, task.end)
          : 0.0;
  return task.beta * spatial + (1.0 - task.beta) * temporal;
}

double ExpectedStdBruteForce(const Task& task,
                             const std::vector<Observation>& obs) {
  const size_t r = obs.size();
  assert(r <= 25 && "possible-worlds enumeration limited to 2^25 worlds");
  double expected = 0.0;
  for (uint64_t world = 0; world < (uint64_t{1} << r); ++world) {
    double prob = 1.0;
    std::vector<Observation> present;
    for (size_t i = 0; i < r; ++i) {
      double p = ClampConfidence(obs[i].confidence);
      if (world & (uint64_t{1} << i)) {
        prob *= p;
        present.push_back(obs[i]);
      } else {
        prob *= 1.0 - p;
      }
    }
    if (prob > 0.0) expected += prob * Std(task, present);
  }
  return expected;
}

DiversityBounds ExpectedStdBounds(const Task& task,
                                  const std::vector<Observation>& obs) {
  DiversityBounds bounds;
  const size_t r = obs.size();
  if (r == 0) return bounds;

  bounds.ub = Std(task, obs);  // Lemma 4.2: diversity peaks with all present.

  // P(at least one present) and P(at least two present).
  double none = 1.0;
  for (const Observation& o : obs) none *= 1.0 - ClampConfidence(o.confidence);
  double exactly_one = 0.0;
  {
    // prefix[i] = prod of (1-p) over obs[0..i); suffix analogous.
    std::vector<double> prefix(r + 1, 1.0);
    for (size_t i = 0; i < r; ++i) {
      prefix[i + 1] = prefix[i] * (1.0 - ClampConfidence(obs[i].confidence));
    }
    double suffix = 1.0;
    for (size_t i = r; i-- > 0;) {
      exactly_one += ClampConfidence(obs[i].confidence) * prefix[i] * suffix;
      suffix *= 1.0 - ClampConfidence(obs[i].confidence);
    }
  }
  double p_ge1 = 1.0 - none;
  double p_ge2 = std::max(0.0, p_ge1 - exactly_one);

  // Smallest realizable non-zero SD: the two rays across the narrowest gap
  // (Section 4.3; minimizer of the concave two-way entropy).
  double min_sd = 0.0;
  if (r >= 2) {
    AngularLayout layout = SortByAngle(obs);
    double min_gap = kTwoPi;
    for (double g : layout.gap) min_gap = std::min(min_gap, g);
    min_sd = TwoWayEntropy(min_gap / kTwoPi);
  }

  // Smallest realizable non-zero TD: the single worker whose arrival splits
  // the period most unevenly.
  double min_td = 0.0;
  {
    double best = std::numeric_limits<double>::infinity();
    const double duration = task.Duration();
    for (const Observation& o : obs) {
      double a = (std::clamp(o.arrival, task.start, task.end) - task.start) /
                 duration;
      best = std::min(best, TwoWayEntropy(a));
    }
    min_td = best;
  }

  bounds.lb = task.beta * p_ge2 * min_sd + (1.0 - task.beta) * p_ge1 * min_td;
  bounds.lb = std::min(bounds.lb, bounds.ub);
  return bounds;
}

void StdBoundsView::Build(const Task& task,
                          const std::vector<Observation>& obs) {
  const size_t r = obs.size();
  sd_angle_.clear();
  arrival_.clear();
  for (const Observation& o : obs) {
    sd_angle_.push_back(geo::NormalizeAngle(o.angle));
    // Clamping is monotone, so clamping after sorting (TemporalDiversity)
    // and sorting after clamping give the same sequence.
    arrival_.push_back(std::clamp(o.arrival, task.start, task.end));
  }
  std::sort(sd_angle_.begin(), sd_angle_.end());
  std::sort(arrival_.begin(), arrival_.end());

  sd_gap_.clear();
  sd_term_.clear();
  for (size_t k = 0; k + 1 < r; ++k) {
    double gap = sd_angle_[k + 1] - sd_angle_[k];
    sd_gap_.push_back(gap);
    sd_term_.push_back(EntropyTerm(gap / kTwoPi));
  }

  td_term_.clear();
  const double duration = task.end - task.start;
  double prev = task.start;
  for (double t : arrival_) {
    td_term_.push_back(EntropyTerm((t - prev) / duration));
    prev = t;
  }
  td_term_.push_back(EntropyTerm((task.end - prev) / duration));

  absent_prefix_.assign(1, 1.0);
  present_first_.clear();
  absent_.clear();
  min_td_ = std::numeric_limits<double>::infinity();
  for (const Observation& o : obs) {
    double p = ClampConfidence(o.confidence);
    present_first_.push_back(p * absent_prefix_.back());
    absent_.push_back(1.0 - p);
    absent_prefix_.push_back(absent_prefix_.back() * (1.0 - p));
    double a = (std::clamp(o.arrival, task.start, task.end) - task.start) /
               task.Duration();
    min_td_ = std::min(min_td_, TwoWayEntropy(a));
  }
}

DiversityBounds StdBoundsView::Bounds(const Task& task,
                                      const Observation* extra) const {
  DiversityBounds bounds;
  const bool insert = extra != nullptr;
  const size_t old_r = absent_.size();
  const size_t r = old_r + (insert ? 1 : 0);
  if (r == 0) return bounds;

  // Each walk below visits the r' gaps (or sub-intervals) of the sorted
  // sequence with the new element merged in at position q: cached gaps
  // before q, the one or two gaps touching the new element, cached gaps
  // after it.

  // SpatialDiversity of all angles, and the narrowest gap of the same ring
  // (SortByAngle's gaps are these gaps) for the smallest realizable
  // non-zero SD.
  double sd = 0.0;
  double min_sd = 0.0;
  if (r >= 2) {
    double entropy = 0.0;
    double sum = 0.0;
    double min_gap = kTwoPi;
    auto add = [&](double gap, double term) {
      sum += gap;
      min_gap = std::min(min_gap, gap);
      entropy += term;
    };
    const double x = insert ? geo::NormalizeAngle(extra->angle) : 0.0;
    const size_t q =
        insert ? static_cast<size_t>(
                     std::upper_bound(sd_angle_.begin(), sd_angle_.end(), x) -
                     sd_angle_.begin())
               : old_r;
    for (size_t k = 0; k + 1 < q; ++k) add(sd_gap_[k], sd_term_[k]);
    if (insert && q > 0) {
      double gap = x - sd_angle_[q - 1];
      add(gap, EntropyTerm(gap / kTwoPi));
    }
    if (insert && q < old_r) {
      double gap = sd_angle_[q] - x;
      add(gap, EntropyTerm(gap / kTwoPi));
    }
    for (size_t k = q; k + 1 < old_r; ++k) add(sd_gap_[k], sd_term_[k]);
    const double wrap = kTwoPi - sum;
    entropy += EntropyTerm(wrap / kTwoPi);
    sd = entropy;
    min_sd = TwoWayEntropy(std::min(min_gap, wrap) / kTwoPi);
  }

  // TemporalDiversity of all arrivals.
  double td = 0.0;
  {
    const double duration = task.end - task.start;
    if (!insert) {
      for (double term : td_term_) td += term;
    } else {
      const double x = std::clamp(extra->arrival, task.start, task.end);
      const size_t q = static_cast<size_t>(
          std::upper_bound(arrival_.begin(), arrival_.end(), x) -
          arrival_.begin());
      for (size_t k = 0; k < q; ++k) td += td_term_[k];
      const double prev = q == 0 ? task.start : arrival_[q - 1];
      td += EntropyTerm((x - prev) / duration);
      const double next = q == old_r ? task.end : arrival_[q];
      td += EntropyTerm((next - x) / duration);
      for (size_t k = q + 1; k <= old_r; ++k) td += td_term_[k];
    }
  }
  bounds.ub = task.beta * sd + (1.0 - task.beta) * td;

  // P(at least one present) and P(exactly one present); only the suffix
  // products start at the appended element, so this stays an O(r) loop.
  double none = absent_prefix_[old_r];
  double exactly_one = 0.0;
  double suffix = 1.0;
  if (insert) {
    double p = ClampConfidence(extra->confidence);
    none *= 1.0 - p;
    exactly_one += p * absent_prefix_[old_r] * suffix;
    suffix *= 1.0 - p;
  }
  for (size_t i = old_r; i-- > 0;) {
    exactly_one += present_first_[i] * suffix;
    suffix *= absent_[i];
  }
  double p_ge1 = 1.0 - none;
  double p_ge2 = std::max(0.0, p_ge1 - exactly_one);

  double min_td = min_td_;
  if (insert) {
    double a = (std::clamp(extra->arrival, task.start, task.end) -
                task.start) /
               task.Duration();
    min_td = std::min(min_td, TwoWayEntropy(a));
  }

  bounds.lb = task.beta * p_ge2 * min_sd + (1.0 - task.beta) * p_ge1 * min_td;
  bounds.lb = std::min(bounds.lb, bounds.ub);
  return bounds;
}

}  // namespace rdbsc::core
