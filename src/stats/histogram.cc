#include "stats/histogram.h"

#include <cmath>
#include <istream>
#include <ostream>

#include "common/check.h"
#include "common/str_format.h"

namespace scguard::stats {

Histogram::Histogram(double lo, double hi, int num_bins)
    : lo_(lo),
      hi_(hi),
      width_((hi - lo) / num_bins),
      bins_(static_cast<size_t>(num_bins), 0) {
  SCGUARD_CHECK(lo < hi && num_bins >= 1);
}

void Histogram::Add(double value) { AddCount(value, 1); }

void Histogram::AddCount(double value, uint64_t count) {
  cumulative_valid_ = false;
  total_ += count;
  if (value < lo_) {
    underflow_ += count;
    return;
  }
  if (value >= hi_) {
    overflow_ += count;
    return;
  }
  auto bin = static_cast<size_t>((value - lo_) / width_);
  if (bin >= bins_.size()) bin = bins_.size() - 1;  // Float edge case at hi.
  bins_[bin] += count;
}

uint64_t Histogram::bin_count(int bin) const {
  SCGUARD_CHECK(bin >= 0 && bin < num_bins());
  return bins_[static_cast<size_t>(bin)];
}

const std::vector<uint64_t>& Histogram::CumulativeCounts() const {
  if (!cumulative_valid_) {
    cumulative_.resize(bins_.size());
    uint64_t running = underflow_;
    for (size_t i = 0; i < bins_.size(); ++i) {
      cumulative_[i] = running;  // Counts strictly below bin i.
      running += bins_[i];
    }
    cumulative_valid_ = true;
  }
  return cumulative_;
}

double Histogram::FractionBelow(double x) const {
  if (total_ == 0) return 0.0;
  // Negated so a NaN threshold lands here too, never in the bin cast.
  if (!(x >= lo_)) return 0.0;
  if (x >= hi_) {
    return static_cast<double>(total_ - overflow_) / static_cast<double>(total_);
  }
  auto bin = static_cast<size_t>((x - lo_) / width_);
  if (bin >= bins_.size()) bin = bins_.size() - 1;
  const uint64_t below = CumulativeCounts()[bin];
  const double frac_in_bin =
      (x - (lo_ + static_cast<double>(bin) * width_)) / width_;
  const double partial = frac_in_bin * static_cast<double>(bins_[bin]);
  return (static_cast<double>(below) + partial) / static_cast<double>(total_);
}

double Histogram::Quantile(double p) const {
  SCGUARD_CHECK(p >= 0.0 && p <= 1.0);
  if (total_ == 0) return lo_;
  const double target = p * static_cast<double>(total_);
  double cum = static_cast<double>(underflow_);
  if (target <= cum) return lo_;
  for (size_t i = 0; i < bins_.size(); ++i) {
    const double c = static_cast<double>(bins_[i]);
    if (cum + c >= target) {
      const double frac = c > 0 ? (target - cum) / c : 0.0;
      return lo_ + (static_cast<double>(i) + frac) * width_;
    }
    cum += c;
  }
  return hi_;
}

double Histogram::Mean() const {
  if (total_ == 0) return 0.0;
  double sum = static_cast<double>(underflow_) * lo_ +
               static_cast<double>(overflow_) * hi_;
  for (size_t i = 0; i < bins_.size(); ++i) {
    const double mid = lo_ + (static_cast<double>(i) + 0.5) * width_;
    sum += static_cast<double>(bins_[i]) * mid;
  }
  return sum / static_cast<double>(total_);
}

Status Histogram::Merge(const Histogram& other) {
  if (other.lo_ != lo_ || other.hi_ != hi_ || other.bins_.size() != bins_.size()) {
    return Status::InvalidArgument("histogram geometries differ");
  }
  cumulative_valid_ = false;
  for (size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
  return Status::OK();
}

void Histogram::Serialize(std::ostream& os) const {
  os << lo_ << ' ' << hi_ << ' ' << bins_.size() << ' ' << underflow_ << ' '
     << overflow_;
  for (uint64_t c : bins_) os << ' ' << c;
}

Result<Histogram> Histogram::Deserialize(std::istream& is) {
  double lo, hi;
  size_t n;
  uint64_t under, over;
  if (!(is >> lo >> hi >> n >> under >> over)) {
    return Status::IOError("histogram header unreadable");
  }
  if (!(lo < hi) || n == 0 || n > (1u << 24)) {
    return Status::IOError(StrCat("bad histogram geometry: lo=", lo,
                                  " hi=", hi, " bins=", n));
  }
  Histogram h(lo, hi, static_cast<int>(n));
  h.underflow_ = under;
  h.overflow_ = over;
  h.total_ = under + over;
  for (size_t i = 0; i < n; ++i) {
    uint64_t c;
    if (!(is >> c)) return Status::IOError("histogram bins truncated");
    h.bins_[i] = c;
    h.total_ += c;
  }
  return h;
}

}  // namespace scguard::stats
