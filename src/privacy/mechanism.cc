#include "privacy/mechanism.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/str_format.h"

namespace scguard::privacy {

const char* MechanismKindName(MechanismKind kind) {
  switch (kind) {
    case MechanismKind::kPlanarLaplace: return "planar-laplace";
    case MechanismKind::kGeoMatrix: return "geo-matrix";
    case MechanismKind::kPriorEmpirical: return "prior-empirical";
  }
  return "unknown";
}

void Mechanism::PerturbBatch(const geo::Point* xs, size_t n, stats::Rng& rng,
                             geo::Point* out) const {
  for (size_t i = 0; i < n; ++i) out[i] = Perturb(xs[i], rng);
}

std::optional<double> Mechanism::DiskProbability(double, double) const {
  return std::nullopt;
}

std::string Mechanism::ParamsJson() const {
  std::ostringstream os;
  os << "{\"name\":\"" << name() << "\",\"epsilon\":" << params_.epsilon
     << ",\"radius_m\":" << params_.radius_m << "}";
  return os.str();
}

// --------------------------------------------------------------------------
// PlanarLaplaceMechanism

PlanarLaplaceMechanism::PlanarLaplaceMechanism(const PrivacyParams& params)
    : Mechanism(params), laplace_(params.unit_epsilon()) {
  SCGUARD_CHECK(params.Validate().ok());
}

geo::Point PlanarLaplaceMechanism::Perturb(geo::Point x,
                                           stats::Rng& rng) const {
  // One Sample, added to x: the draw order TruncatedGeoInd(kNone) and the
  // pre-interface inline call sites share bit for bit.
  return x + laplace_.Sample(rng);
}

std::optional<double> PlanarLaplaceMechanism::DiskProbability(
    double center_distance_m, double disk_radius_m) const {
  return laplace_.DiskProbability(center_distance_m, disk_radius_m);
}

double PlanarLaplaceMechanism::ConfidenceRadius(double gamma) const {
  return laplace_.ConfidenceRadius(gamma);
}

std::string_view PlanarLaplaceMechanism::name() const {
  return "planar-laplace";
}

// --------------------------------------------------------------------------
// AliasTable

AliasTable::AliasTable(const std::vector<double>& probs) {
  const size_t n = probs.size();
  SCGUARD_CHECK(n > 0);
  const double total = std::accumulate(probs.begin(), probs.end(), 0.0);
  SCGUARD_CHECK(total > 0.0);
  accept_.resize(n);
  alias_.assign(n, 0);
  // Vose's two-stack construction, visiting indices in increasing order so
  // equal probability vectors build byte-equal tables.
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) scaled[i] = probs[i] * static_cast<double>(n) / total;
  std::vector<uint32_t> small, large;
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    const uint32_t l = large.back();
    small.pop_back();
    accept_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] -= 1.0 - scaled[s];
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Leftovers are within rounding of 1; they always accept.
  for (const uint32_t l : large) accept_[l] = 1.0;
  for (const uint32_t s : small) accept_[s] = 1.0;
}

uint32_t AliasTable::Sample(stats::Rng& rng) const {
  const uint32_t column =
      static_cast<uint32_t>(rng.UniformInt(accept_.size()));
  // UniformDouble() < 1.0 always, so accept_[i] == 1.0 never falls through.
  return rng.UniformDouble() < accept_[column] ? column : alias_[column];
}

// --------------------------------------------------------------------------
// MatrixMechanism

namespace {

Status ValidateGridSpec(const PrivacyParams& params,
                        const geo::BoundingBox& region) {
  SCGUARD_RETURN_NOT_OK(params.Validate());
  if (region.empty() || region.Width() <= 0.0 || region.Height() <= 0.0) {
    return Status::InvalidArgument(
        "grid mechanisms need a non-empty region: set "
        "PrivacyParams::mechanism.region or pass a fallback_region");
  }
  return Status::OK();
}

}  // namespace

MatrixMechanism::MatrixMechanism(const PrivacyParams& params,
                                 const geo::BoundingBox& region,
                                 std::vector<std::vector<double>> rows,
                                 std::string name)
    : Mechanism(params),
      region_(region),
      cells_(params.mechanism.grid_cells),
      cell_w_(region.Width() / params.mechanism.grid_cells),
      cell_h_(region.Height() / params.mechanism.grid_cells),
      rows_(std::move(rows)),
      name_(std::move(name)) {
  const size_t n = static_cast<size_t>(cells_) * static_cast<size_t>(cells_);
  SCGUARD_CHECK(rows_.size() == n);
  alias_.reserve(n);
  for (auto& row : rows_) {
    SCGUARD_CHECK(row.size() == n);
    alias_.emplace_back(row);
    // Keep the stored rows normalized so Row(i) is a distribution.
    const double total = std::accumulate(row.begin(), row.end(), 0.0);
    for (double& p : row) p /= total;
  }
}

size_t MatrixMechanism::CellOf(geo::Point x) const {
  // Clamp onto the region so off-grid true locations (e.g. a drifting
  // service reporter) map to the nearest boundary cell instead of dying.
  const double fx = std::clamp((x.x - region_.min_x) / cell_w_, 0.0,
                               static_cast<double>(cells_) - 0.5);
  const double fy = std::clamp((x.y - region_.min_y) / cell_h_, 0.0,
                               static_cast<double>(cells_) - 0.5);
  return static_cast<size_t>(fy) * static_cast<size_t>(cells_) +
         static_cast<size_t>(fx);
}

geo::Point MatrixMechanism::CellCenter(size_t cell) const {
  const size_t nc = static_cast<size_t>(cells_);
  return {region_.min_x + (static_cast<double>(cell % nc) + 0.5) * cell_w_,
          region_.min_y + (static_cast<double>(cell / nc) + 0.5) * cell_h_};
}

Result<std::unique_ptr<MatrixMechanism>> MatrixMechanism::Make(
    const PrivacyParams& params, const geo::BoundingBox& region) {
  SCGUARD_RETURN_NOT_OK(ValidateGridSpec(params, region));
  const int cells = params.mechanism.grid_cells;
  const size_t n = static_cast<size_t>(cells) * static_cast<size_t>(cells);
  // Exponential Geo-I kernel over cell centers: the discrete analogue of
  // planar Laplace, eps/2-scaled so that P(j|i)/P(j|i') <= e^{eps d(i,i')/r}
  // after the normalizer ratio is accounted for.
  const double half_eps = 0.5 * params.unit_epsilon();
  PrivacyParams p = params;
  p.mechanism.region = region;
  std::vector<std::vector<double>> rows(n);
  // Build row 0's geometry lazily through a temporary grid: centers depend
  // only on (region, cells).
  const double cw = region.Width() / cells;
  const double ch = region.Height() / cells;
  const size_t nc = static_cast<size_t>(cells);
  auto center = [&](size_t cell) {
    return geo::Point{
        region.min_x + (static_cast<double>(cell % nc) + 0.5) * cw,
        region.min_y + (static_cast<double>(cell / nc) + 0.5) * ch};
  };
  for (size_t i = 0; i < n; ++i) {
    rows[i].resize(n);
    const geo::Point ci = center(i);
    for (size_t j = 0; j < n; ++j) {
      rows[i][j] = std::exp(-half_eps * geo::Distance(ci, center(j)));
    }
  }
  return std::unique_ptr<MatrixMechanism>(new MatrixMechanism(
      p, region, std::move(rows), MechanismKindName(MechanismKind::kGeoMatrix)));
}

Result<std::unique_ptr<MatrixMechanism>> MatrixMechanism::FromRows(
    const PrivacyParams& params, const geo::BoundingBox& region,
    std::vector<std::vector<double>> rows, std::string name) {
  SCGUARD_RETURN_NOT_OK(ValidateGridSpec(params, region));
  const size_t n = static_cast<size_t>(params.mechanism.grid_cells) *
                   static_cast<size_t>(params.mechanism.grid_cells);
  if (rows.size() != n) {
    return Status::InvalidArgument(
        StrCat("expected ", n, " rows, got ", rows.size()));
  }
  for (const auto& row : rows) {
    if (row.size() != n) {
      return Status::InvalidArgument(
          StrCat("expected ", n, " columns, got ", row.size()));
    }
    double total = 0.0;
    for (const double w : row) {
      if (!(w >= 0.0)) return Status::InvalidArgument("negative row weight");
      total += w;
    }
    if (!(total > 0.0)) return Status::InvalidArgument("all-zero matrix row");
  }
  PrivacyParams p = params;
  p.mechanism.region = region;
  return std::unique_ptr<MatrixMechanism>(
      new MatrixMechanism(p, region, std::move(rows), std::move(name)));
}

geo::Point MatrixMechanism::Perturb(geo::Point x, stats::Rng& rng) const {
  const size_t src = CellOf(x);
  const size_t nc = static_cast<size_t>(cells_);
  const size_t dst = alias_[src].Sample(rng);
  // Uniform jitter inside the landed cell; two draws, x then y.
  return {region_.min_x +
              (static_cast<double>(dst % nc) + rng.UniformDouble()) * cell_w_,
          region_.min_y +
              (static_cast<double>(dst / nc) + rng.UniformDouble()) * cell_h_};
}

double MatrixMechanism::ConfidenceRadius(double gamma) const {
  SCGUARD_CHECK(gamma > 0.0 && gamma < 1.0);
  // Per source cell: the gamma-quantile of the center-to-center distance,
  // plus a full cell diagonal covering the true point's offset inside its
  // cell and the jitter inside the landed cell. Max over sources makes the
  // radius sound for any true location, which is what pruning needs.
  const size_t n = rows_.size();
  const double slack = std::hypot(cell_w_, cell_h_);
  double worst = 0.0;
  std::vector<std::pair<double, double>> by_distance(n);
  for (size_t i = 0; i < n; ++i) {
    const geo::Point ci = CellCenter(i);
    for (size_t j = 0; j < n; ++j) {
      by_distance[j] = {geo::Distance(ci, CellCenter(j)), rows_[i][j]};
    }
    std::sort(by_distance.begin(), by_distance.end());
    double mass = 0.0;
    double radius = by_distance.back().first;
    for (const auto& [d, p] : by_distance) {
      mass += p;
      if (mass >= gamma) {
        radius = d;
        break;
      }
    }
    worst = std::max(worst, radius + slack);
  }
  return worst;
}

std::string_view MatrixMechanism::name() const { return name_; }

std::string MatrixMechanism::ParamsJson() const {
  std::ostringstream os;
  os << "{\"name\":\"" << JsonEscape(name_)
     << "\",\"epsilon\":" << params_.epsilon
     << ",\"radius_m\":" << params_.radius_m
     << ",\"grid_cells\":" << cells_ << "}";
  return os.str();
}

// --------------------------------------------------------------------------
// PriorWeightedMechanism

namespace {

/// Seeded Beijing-like demand surface: a Zipf-weighted Gaussian hotspot
/// mixture with a uniform background — the same family
/// data::HotspotMixture::MakeBeijingLike draws synthetic T-Drive trips
/// from, reimplemented here because privacy/ sits below data/ in the layer
/// graph. Purely a function of (region, seed), so every site learns the
/// identical prior.
geo::Point SampleSyntheticHistory(const geo::BoundingBox& region,
                                  const std::vector<geo::Point>& centers,
                                  const std::vector<double>& sigmas,
                                  const std::vector<double>& cum_weights,
                                  stats::Rng& rng) {
  const double pick = rng.UniformDouble();
  size_t k = cum_weights.size();  // past-the-end means background
  for (size_t i = 0; i < cum_weights.size(); ++i) {
    if (pick < cum_weights[i]) {
      k = i;
      break;
    }
  }
  geo::Point p;
  if (k == cum_weights.size()) {
    p = {rng.UniformDouble(region.min_x, region.max_x),
         rng.UniformDouble(region.min_y, region.max_y)};
  } else {
    p = {rng.Gaussian(centers[k].x, sigmas[k]),
         rng.Gaussian(centers[k].y, sigmas[k])};
  }
  return {std::clamp(p.x, region.min_x, region.max_x),
          std::clamp(p.y, region.min_y, region.max_y)};
}

std::vector<double> LearnCellPrior(const PrivacyParams& params,
                                   const geo::BoundingBox& region,
                                   const geo::Point* history, size_t n) {
  const int cells = params.mechanism.grid_cells;
  const size_t total =
      static_cast<size_t>(cells) * static_cast<size_t>(cells);
  const double cw = region.Width() / cells;
  const double ch = region.Height() / cells;
  // Add-one smoothing: unseen cells keep a floor so every row of the
  // re-weighted matrix stays a valid (and Geo-I-bounded) distribution.
  std::vector<double> prior(total, 1.0);
  for (size_t i = 0; i < n; ++i) {
    const double fx =
        std::clamp((history[i].x - region.min_x) / cw, 0.0, cells - 0.5);
    const double fy =
        std::clamp((history[i].y - region.min_y) / ch, 0.0, cells - 0.5);
    prior[static_cast<size_t>(fy) * static_cast<size_t>(cells) +
          static_cast<size_t>(fx)] += 1.0;
  }
  return prior;
}

Result<std::unique_ptr<MatrixMechanism>> BuildPriorMatrix(
    const PrivacyParams& params, const geo::BoundingBox& region,
    const std::vector<double>& prior) {
  SCGUARD_RETURN_NOT_OK(ValidateGridSpec(params, region));
  const int cells = params.mechanism.grid_cells;
  const size_t n = static_cast<size_t>(cells) * static_cast<size_t>(cells);
  SCGUARD_CHECK(prior.size() == n);
  const double half_eps = 0.5 * params.unit_epsilon();
  const double cw = region.Width() / cells;
  const double ch = region.Height() / cells;
  const size_t nc = static_cast<size_t>(cells);
  auto center = [&](size_t cell) {
    return geo::Point{
        region.min_x + (static_cast<double>(cell % nc) + 0.5) * cw,
        region.min_y + (static_cast<double>(cell / nc) + 0.5) * ch};
  };
  std::vector<std::vector<double>> rows(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i].resize(n);
    const geo::Point ci = center(i);
    for (size_t j = 0; j < n; ++j) {
      rows[i][j] = prior[j] * std::exp(-half_eps * geo::Distance(ci, center(j)));
    }
  }
  return MatrixMechanism::FromRows(
      params, region, std::move(rows),
      MechanismKindName(MechanismKind::kPriorEmpirical));
}

}  // namespace

PriorWeightedMechanism::PriorWeightedMechanism(
    std::unique_ptr<MatrixMechanism> matrix)
    : Mechanism(matrix->params()), matrix_(std::move(matrix)) {}

Result<std::unique_ptr<PriorWeightedMechanism>> PriorWeightedMechanism::Make(
    const PrivacyParams& params, const geo::BoundingBox& region) {
  SCGUARD_RETURN_NOT_OK(ValidateGridSpec(params, region));
  // Deterministic synthetic history from the spec's stream.
  stats::Rng rng(params.mechanism.prior_seed);
  constexpr size_t kHotspots = 24;
  constexpr double kBackground = 0.2;
  const double inset_x = 0.2 * region.Width();
  const double inset_y = 0.2 * region.Height();
  std::vector<geo::Point> centers(kHotspots);
  std::vector<double> sigmas(kHotspots);
  std::vector<double> weights(kHotspots);
  for (size_t k = 0; k < kHotspots; ++k) {
    centers[k] = {rng.UniformDouble(region.min_x + inset_x,
                                    region.max_x - inset_x),
                  rng.UniformDouble(region.min_y + inset_y,
                                    region.max_y - inset_y)};
    sigmas[k] = rng.UniformDouble(400.0, 2000.0);
    weights[k] = 1.0 / (static_cast<double>(k) + 1.0);  // Zipf-like popularity
  }
  const double wsum = std::accumulate(weights.begin(), weights.end(), 0.0);
  std::vector<double> cum(kHotspots);
  double acc = 0.0;
  for (size_t k = 0; k < kHotspots; ++k) {
    acc += (1.0 - kBackground) * weights[k] / wsum;
    cum[k] = acc;
  }
  std::vector<geo::Point> history(
      static_cast<size_t>(params.mechanism.prior_samples));
  for (auto& p : history) {
    p = SampleSyntheticHistory(region, centers, sigmas, cum, rng);
  }
  return Learn(params, region, history.data(), history.size());
}

Result<std::unique_ptr<PriorWeightedMechanism>> PriorWeightedMechanism::Learn(
    const PrivacyParams& params, const geo::BoundingBox& region,
    const geo::Point* history, size_t n) {
  SCGUARD_RETURN_NOT_OK(ValidateGridSpec(params, region));
  const std::vector<double> prior = LearnCellPrior(params, region, history, n);
  auto matrix = BuildPriorMatrix(params, region, prior);
  SCGUARD_RETURN_NOT_OK(matrix.status());
  return std::unique_ptr<PriorWeightedMechanism>(
      new PriorWeightedMechanism(std::move(matrix).ValueOrDie()));
}

geo::Point PriorWeightedMechanism::Perturb(geo::Point x,
                                           stats::Rng& rng) const {
  return matrix_->Perturb(x, rng);
}

double PriorWeightedMechanism::ConfidenceRadius(double gamma) const {
  return matrix_->ConfidenceRadius(gamma);
}

std::string_view PriorWeightedMechanism::name() const {
  return MechanismKindName(MechanismKind::kPriorEmpirical);
}

std::string PriorWeightedMechanism::ParamsJson() const {
  std::ostringstream os;
  os << "{\"name\":\"" << name() << "\",\"epsilon\":" << params_.epsilon
     << ",\"radius_m\":" << params_.radius_m
     << ",\"grid_cells\":" << params_.mechanism.grid_cells
     << ",\"prior_seed\":" << params_.mechanism.prior_seed
     << ",\"prior_samples\":" << params_.mechanism.prior_samples << "}";
  return os.str();
}

// --------------------------------------------------------------------------
// Factory

bool HasClosedFormDiskProbability(MechanismKind kind) {
  return kind == MechanismKind::kPlanarLaplace;
}

Result<std::unique_ptr<const Mechanism>> MakeMechanism(
    const PrivacyParams& params, const geo::BoundingBox& fallback_region) {
  SCGUARD_RETURN_NOT_OK(params.Validate());
  const geo::BoundingBox& region = params.mechanism.region.empty()
                                       ? fallback_region
                                       : params.mechanism.region;
  switch (params.mechanism.kind) {
    case MechanismKind::kPlanarLaplace:
      return std::unique_ptr<const Mechanism>(
          new PlanarLaplaceMechanism(params));
    case MechanismKind::kGeoMatrix: {
      auto m = MatrixMechanism::Make(params, region);
      SCGUARD_RETURN_NOT_OK(m.status());
      return std::unique_ptr<const Mechanism>(std::move(m).ValueOrDie());
    }
    case MechanismKind::kPriorEmpirical: {
      auto m = PriorWeightedMechanism::Make(params, region);
      SCGUARD_RETURN_NOT_OK(m.status());
      return std::unique_ptr<const Mechanism>(std::move(m).ValueOrDie());
    }
  }
  return Status::InvalidArgument("unknown mechanism kind");
}

std::unique_ptr<const Mechanism> MakeMechanismOrDie(
    const PrivacyParams& params, const geo::BoundingBox& fallback_region) {
  // ValueOrDie aborts with the status printed on error.
  return MakeMechanism(params, fallback_region).ValueOrDie();
}

}  // namespace scguard::privacy
