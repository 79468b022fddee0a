#include "reachability/model_cache.h"

#include <filesystem>
#include <fstream>
#include <ios>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/span.h"
#include "stats/rng.h"

namespace scguard::reachability {
namespace {

/// Registry mirrors of CacheStats. The struct accessor (`stats()`) is the
/// source of truth and works with observability disabled; these exist so
/// cache behavior shows up in bench `metrics` blocks and Prometheus dumps
/// without polling every cache instance.
struct CacheCounters {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* disk_loads;

  static const CacheCounters& Get() {
    static const CacheCounters counters = {
        obs::MetricsRegistry::Global().GetCounter("scguard.model_cache.hits"),
        obs::MetricsRegistry::Global().GetCounter("scguard.model_cache.misses"),
        obs::MetricsRegistry::Global().GetCounter(
            "scguard.model_cache.disk_loads")};
    return counters;
  }
};

// FNV-1a 64-bit, for the cache filename only (the file itself stores the
// full key, so collisions degrade to a rebuild, never a wrong model).
uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string HexDigest(uint64_t h) {
  std::ostringstream os;
  os << std::hex << h;
  return os.str();
}

}  // namespace

ModelCache& ModelCache::Global() {
  static ModelCache* cache = new ModelCache();
  return *cache;
}

void ModelCache::set_cache_dir(std::string dir) {
  std::lock_guard<std::mutex> lock(mu_);
  cache_dir_ = std::move(dir);
}

std::string ModelCache::KeyFor(const EmpiricalModelConfig& config,
                               const privacy::PrivacyParams& worker_params,
                               const privacy::PrivacyParams& task_params,
                               uint64_t build_seed) {
  // Distinct mechanisms learn distinct tables, so the spec is part of the
  // identity of a build (a planar-Laplace model must never be served for a
  // grid-mechanism request at the same epsilon).
  const auto spec_of = [](const privacy::PrivacyParams& p) {
    std::ostringstream ss;
    ss << std::hexfloat << privacy::MechanismKindName(p.mechanism.kind) << ','
       << p.mechanism.grid_cells << ',' << p.mechanism.prior_seed << ','
       << p.mechanism.prior_samples << ',' << p.mechanism.region.min_x << ','
       << p.mechanism.region.min_y << ',' << p.mechanism.region.max_x << ','
       << p.mechanism.region.max_y;
    return ss.str();
  };
  std::ostringstream os;
  os << std::hexfloat;
  os << "w:" << worker_params.epsilon << ',' << worker_params.radius_m << ','
     << spec_of(worker_params) << ";t:" << task_params.epsilon << ','
     << task_params.radius_m << ',' << spec_of(task_params)
     << ";region:" << config.region.min_x << ',' << config.region.min_y << ','
     << config.region.max_x << ',' << config.region.max_y
     << ";samples:" << config.num_samples << ";bw:" << config.bucket_width_m
     << ";nb:" << config.num_buckets << ";tm:" << config.true_max_m
     << ";tb:" << config.true_bins << ";shards:" << config.num_shards
     << ";seed:" << build_seed;
  return os.str();
}

std::string ModelCache::PathFor(const std::string& key) const {
  return cache_dir_ + "/scguard-empirical-" + HexDigest(Fnv1a(key)) + ".model";
}

Result<std::shared_ptr<const EmpiricalModel>> ModelCache::GetOrBuild(
    const EmpiricalModelConfig& config,
    const privacy::PrivacyParams& worker_params,
    const privacy::PrivacyParams& task_params, uint64_t build_seed,
    runtime::ThreadPool* pool) {
  const std::string key =
      KeyFor(config, worker_params, task_params, build_seed);

  std::string cache_dir;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = models_.find(key);
    if (it != models_.end()) {
      ++stats_.hits;
      CacheCounters::Get().hits->Increment();
      static const uint16_t rec_hit_id =
          obs::FlightRecorder::Global().InternName("model_cache.hit");
      obs::EmitInstant(rec_hit_id);
      return it->second;
    }
    cache_dir = cache_dir_;
  }

  // Disk layer: a file is valid only if it records this exact key.
  std::shared_ptr<const EmpiricalModel> model;
  bool from_disk = false;
  if (!cache_dir.empty()) {
    std::ifstream in(PathFor(key));
    std::string magic, stored_key;
    if (in && std::getline(in, magic) && magic == "scguard-model-cache-v1" &&
        std::getline(in, stored_key) && stored_key == key) {
      auto loaded = EmpiricalModel::Deserialize(in);
      if (loaded.ok()) {
        model = std::make_shared<const EmpiricalModel>(std::move(*loaded));
        from_disk = true;
      }
    }
  }

  if (model == nullptr) {
    static const obs::SpanSite kBuildSite("model_cache.build");
    const obs::Span build_span(kBuildSite);
    stats::Rng rng(build_seed);
    SCGUARD_ASSIGN_OR_RETURN(
        EmpiricalModel built,
        EmpiricalModel::Build(config, worker_params, task_params, rng, pool));
    model = std::make_shared<const EmpiricalModel>(std::move(built));
    if (!cache_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(cache_dir, ec);
      // Best-effort: an unwritable cache dir degrades to rebuilds.
      if (!ec) {
        std::ofstream out(PathFor(key), std::ios::trunc);
        if (out) {
          out << "scguard-model-cache-v1\n" << key << '\n';
          model->Serialize(out);
        }
      }
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  static const uint16_t rec_miss_id =
      obs::FlightRecorder::Global().InternName("model_cache.miss");
  if (from_disk) {
    ++stats_.disk_loads;
    CacheCounters::Get().disk_loads->Increment();
  } else {
    ++stats_.misses;
    CacheCounters::Get().misses->Increment();
    obs::EmitInstant(rec_miss_id);
  }
  // First insert wins so every caller shares one instance.
  const auto [it, inserted] = models_.emplace(key, std::move(model));
  (void)inserted;
  return it->second;
}

void ModelCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  models_.clear();
}

size_t ModelCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return models_.size();
}

ModelCache::CacheStats ModelCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace scguard::reachability
