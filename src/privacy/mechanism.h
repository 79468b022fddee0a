#ifndef SCGUARD_PRIVACY_MECHANISM_H_
#define SCGUARD_PRIVACY_MECHANISM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "geo/bbox.h"
#include "geo/point.h"
#include "privacy/planar_laplace.h"
#include "privacy/privacy_params.h"
#include "stats/rng.h"

namespace scguard::privacy {

/// Abstract obfuscation mechanism (DESIGN.md section 15).
///
/// The protocol is mechanism-agnostic: U2U/U2E consume noise only through a
/// ReachabilityModel, so any distribution satisfying (eps, r)-Geo-I can
/// replace planar Laplace. Every perturbation site — workload generation,
/// empirical-table builds, the dynamic sim's re-reports, the protocol
/// parties, the service reporters — perturbs through this interface,
/// selected by PrivacyParams::mechanism.
///
/// Determinism contract: Perturb is const and thread-safe, consumes a fixed
/// number of draws from `rng` per call for a fixed mechanism instance, and
/// two mechanisms constructed from equal (PrivacyParams, region) are
/// behaviorally identical. This is what keeps sharded empirical builds
/// thread-count invariant and seeds reproducible.
class Mechanism {
 public:
  virtual ~Mechanism() = default;

  /// Reports a perturbed location for the true location `x`.
  virtual geo::Point Perturb(geo::Point x, stats::Rng& rng) const = 0;

  /// Perturbs `n` points drawing from one stream in index order. The default
  /// loops over Perturb; implementations may override with a vectorized path
  /// provided the rng draw order is unchanged.
  virtual void PerturbBatch(const geo::Point* xs, size_t n, stats::Rng& rng,
                            geo::Point* out) const;

  /// Exact probability that the perturbed point lands inside a disk of
  /// radius `disk_radius_m` centered `center_distance_m` away from the true
  /// location, where analytically known; nullopt otherwise (callers fall
  /// back to the empirical table path). Only planar Laplace has a closed
  /// form today.
  virtual std::optional<double> DiskProbability(double center_distance_m,
                                                double disk_radius_m) const;

  /// Radius containing the true location with probability >= gamma given a
  /// reported location. Used to size the U2U pruning rectangles (paper
  /// Sec. IV-C1); conservative over-covering is sound, under-covering is
  /// not.
  virtual double ConfidenceRadius(double gamma) const = 0;

  /// Stable mechanism identifier for provenance ("planar-laplace", ...).
  virtual std::string_view name() const = 0;

  /// One-line JSON object describing the mechanism ({"name":...,
  /// "epsilon":..., ...}); stamped into BENCH_*.json provenance.
  virtual std::string ParamsJson() const;

  const PrivacyParams& params() const { return params_; }

 protected:
  explicit Mechanism(const PrivacyParams& params) : params_(params) {}

  PrivacyParams params_;
};

/// Adapter over the continuous planar Laplace sampler. Bit-compatible with
/// the pre-interface code paths: Perturb(x, rng) == x + PlanarLaplace(
/// params.unit_epsilon()).Sample(rng) — same draws, same order — so
/// refactored call sites reproduce historical MatchResults exactly.
class PlanarLaplaceMechanism final : public Mechanism {
 public:
  /// Dies on invalid params; use MakeMechanism for checked construction.
  explicit PlanarLaplaceMechanism(const PrivacyParams& params);

  geo::Point Perturb(geo::Point x, stats::Rng& rng) const override;
  std::optional<double> DiskProbability(double center_distance_m,
                                        double disk_radius_m) const override;
  double ConfidenceRadius(double gamma) const override;
  std::string_view name() const override;

  const PlanarLaplace& noise() const { return laplace_; }

 private:
  PlanarLaplace laplace_;
};

/// Walker alias table: O(1) sampling from a discrete distribution with a
/// fixed two-draw cost (UniformInt for the column, UniformDouble for the
/// accept test). Deterministic construction (two-stack method over the
/// index order) so equal probability vectors build equal tables.
class AliasTable {
 public:
  AliasTable() = default;
  /// `probs` need not be normalized; requires a positive total.
  explicit AliasTable(const std::vector<double>& probs);

  uint32_t Sample(stats::Rng& rng) const;
  size_t size() const { return accept_.size(); }

 private:
  std::vector<double> accept_;  // acceptance threshold per column
  std::vector<uint32_t> alias_; // fallback outcome per column
};

/// Grid-discretized obfuscation matrix (Geo-MOEA style, arXiv 2201.11300).
///
/// The region is cut into grid_cells x grid_cells cells; row i of the
/// matrix is the perturbation distribution P(report cell j | true cell i),
/// sampled via a per-row alias table, then jittered uniformly inside the
/// landed cell. Perturb costs exactly 4 rng draws (alias column + accept +
/// 2 jitter coordinates). Rows can be supplied directly (optimized
/// offline) via FromRows, or built from the exponential Geo-I kernel
/// P(j|i) ∝ exp(-eps/(2 r) * d(center_i, center_j)) via Make.
class MatrixMechanism final : public Mechanism {
 public:
  /// Exponential-kernel rows (the discrete analogue of planar Laplace).
  static Result<std::unique_ptr<MatrixMechanism>> Make(
      const PrivacyParams& params, const geo::BoundingBox& region);

  /// Externally optimized rows: `rows` is grid_cells^2 vectors of
  /// grid_cells^2 unnormalized weights, row-major over cells
  /// (cell = cy * grid_cells + cx).
  static Result<std::unique_ptr<MatrixMechanism>> FromRows(
      const PrivacyParams& params, const geo::BoundingBox& region,
      std::vector<std::vector<double>> rows, std::string name);

  geo::Point Perturb(geo::Point x, stats::Rng& rng) const override;
  double ConfidenceRadius(double gamma) const override;
  std::string_view name() const override;
  std::string ParamsJson() const override;

  int grid_cells() const { return cells_; }
  const geo::BoundingBox& region() const { return region_; }
  /// Normalized row i of the matrix (for tests and offline analysis).
  const std::vector<double>& Row(size_t i) const { return rows_[i]; }
  /// Cell index of a (clamped) point; row-major, cy * grid_cells + cx.
  size_t CellOf(geo::Point x) const;
  geo::Point CellCenter(size_t cell) const;

 private:
  MatrixMechanism(const PrivacyParams& params, const geo::BoundingBox& region,
                  std::vector<std::vector<double>> rows, std::string name);

  geo::BoundingBox region_;
  int cells_ = 0;
  double cell_w_ = 0.0, cell_h_ = 0.0;
  std::vector<std::vector<double>> rows_;  // normalized
  std::vector<AliasTable> alias_;
  std::string name_;
};

/// Prior-weighted empirical mechanism (arXiv 2008.03475 flavor): the
/// exponential Geo-I kernel re-weighted by a location prior pi learned from
/// history, P(j|i) ∝ pi(j) * exp(-eps/(2 r) * d(center_i, center_j)).
/// Reported locations concentrate on cells where workers plausibly are,
/// which raises the server's U2U hit rate at equal epsilon.
///
/// The spec path (MakeMechanism) learns pi from a synthetic T-Drive-like
/// history: prior_samples points drawn from a seeded Beijing-style hotspot
/// mixture (the same family data::HotspotMixture generates trips from),
/// counted per cell with add-one smoothing. Being a pure function of the
/// spec, every site reconstructs the identical mechanism. Learn() accepts
/// an explicit history instead.
class PriorWeightedMechanism final : public Mechanism {
 public:
  /// Learns the prior from the spec's synthetic history stream.
  static Result<std::unique_ptr<PriorWeightedMechanism>> Make(
      const PrivacyParams& params, const geo::BoundingBox& region);

  /// Learns the prior from an explicit history of true locations.
  static Result<std::unique_ptr<PriorWeightedMechanism>> Learn(
      const PrivacyParams& params, const geo::BoundingBox& region,
      const geo::Point* history, size_t n);

  geo::Point Perturb(geo::Point x, stats::Rng& rng) const override;
  double ConfidenceRadius(double gamma) const override;
  std::string_view name() const override;
  std::string ParamsJson() const override;

  const MatrixMechanism& matrix() const { return *matrix_; }

 private:
  explicit PriorWeightedMechanism(std::unique_ptr<MatrixMechanism> matrix);

  std::unique_ptr<MatrixMechanism> matrix_;
};

/// True iff the kind has a closed-form DiskProbability — i.e. the
/// analytical reachability model applies. Grid kinds must use the
/// empirical (Probabilistic-Data) path.
bool HasClosedFormDiskProbability(MechanismKind kind);

/// Builds the mechanism selected by params.mechanism. Grid kinds
/// discretize spec.region when set, else `fallback_region` (the workload /
/// city region); an empty effective region is an error.
Result<std::unique_ptr<const Mechanism>> MakeMechanism(
    const PrivacyParams& params,
    const geo::BoundingBox& fallback_region = geo::BoundingBox{});

/// MakeMechanism that dies (SCGUARD_CHECK) on error, for call sites without
/// Status plumbing.
std::unique_ptr<const Mechanism> MakeMechanismOrDie(
    const PrivacyParams& params,
    const geo::BoundingBox& fallback_region = geo::BoundingBox{});

}  // namespace scguard::privacy

#endif  // SCGUARD_PRIVACY_MECHANISM_H_
