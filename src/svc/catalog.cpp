// CampaignCatalog — resident readers + once-computed artifact caches.
#include "svc/catalog.hpp"

#include "obs/metrics.hpp"
#include "series/matcher.hpp"
#include "series/sketch.hpp"
#include "util/thread_pool.hpp"

namespace opcua_study::svc {

namespace {

// Artifact cells of svc_cache_hits / svc_cache_misses (kArtifactCells).
enum ArtifactCell : unsigned {
  kCellSketch = 0,
  kCellPostures = 1,
  kCellStudy = 2,
  kCellDiff = 3,
  kCellSeries = 4,
};

std::size_t posture_vector_bytes(const std::vector<HostPosture>& postures) {
  std::size_t bytes = postures.capacity() * sizeof(HostPosture);
  for (const HostPosture& p : postures) bytes += p.fps.capacity() * sizeof(std::uint64_t);
  return bytes;
}

}  // namespace

CampaignCatalog::CampaignCatalog(CatalogOptions options) : options_(options) {}

CampaignCatalog::~CampaignCatalog() = default;

void CampaignCatalog::register_campaign(const std::string& name, const std::string& path,
                                        std::uint64_t seed) {
  // Open (and fully validate) outside the lock: a slow or bad file never
  // stalls concurrent queries against already-registered campaigns.
  auto reader = std::make_unique<SnapshotReader>(path, seed);
  if (reader->snapshots().empty()) {
    throw SnapshotError("catalog: snapshot '" + path + "' holds no measurement");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (campaigns_.count(name) != 0) {
      throw SnapshotError("catalog: campaign name '" + name + "' is already registered");
    }
    CampaignEntry entry;
    entry.path = path;
    entry.seed = seed;
    entry.reader = std::move(reader);
    campaigns_.emplace(name, std::move(entry));
    campaign_order_.push_back(name);
  }
  note_resident_bytes();
}

void CampaignCatalog::register_series(const std::string& name,
                                      const std::vector<std::string>& campaigns) {
  if (campaigns.empty()) {
    throw SnapshotError("catalog: series '" + name + "' needs >= 1 member campaign");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (series_.count(name) != 0) {
      throw SnapshotError("catalog: series name '" + name + "' is already registered");
    }
  }
  // Feed a local builder first — a chain violation or missing campaign
  // leaves no half-registered series behind. Posture loads go through the
  // artifact cache, so members shared across series are loaded once.
  SeriesEntry entry;
  entry.members = campaigns;
  for (const std::string& campaign : campaigns) {
    const std::shared_ptr<const std::vector<HostPosture>> p = postures(campaign);
    entry.builder.add_member(final_meta(campaign), *p);
  }
  if (entry.builder.size() >= 2) {
    entry.latest = std::make_shared<const SeriesAnalysis>(entry.builder.analysis());
    obs::add(obs::Metric::svc_cache_misses, 1, kCellSeries);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (series_.count(name) != 0) {
      throw SnapshotError("catalog: series name '" + name + "' is already registered");
    }
    series_.emplace(name, std::move(entry));
    series_order_.push_back(name);
  }
  note_resident_bytes();
}

std::size_t CampaignCatalog::append_to_series(const std::string& series,
                                              const std::string& campaign) {
  // One posture load (cached/sketched) + one builder match. No lock is
  // held while the postures materialize, so queries stay live.
  const std::shared_ptr<const std::vector<HostPosture>> p = postures(campaign);
  const SnapshotMeta meta = final_meta(campaign);
  std::size_t count = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = series_.find(series);
    if (it == series_.end()) {
      throw SnapshotError("catalog: unknown series '" + series + "'");
    }
    it->second.builder.add_member(meta, *p);
    it->second.members.push_back(campaign);
    count = it->second.builder.size();
    if (count >= 2) {
      it->second.latest = std::make_shared<const SeriesAnalysis>(it->second.builder.analysis());
      obs::add(obs::Metric::svc_cache_misses, 1, kCellSeries);
    }
  }
  note_resident_bytes();
  return count;
}

std::vector<std::string> CampaignCatalog::campaign_names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return campaign_order_;
}

std::vector<std::string> CampaignCatalog::series_names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return series_order_;
}

std::vector<std::string> CampaignCatalog::series_members(const std::string& series) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = series_.find(series);
  if (it == series_.end()) throw SnapshotError("catalog: unknown series '" + series + "'");
  return it->second.members;
}

const CampaignCatalog::CampaignEntry& CampaignCatalog::entry(const std::string& campaign) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = campaigns_.find(campaign);
  if (it == campaigns_.end()) {
    throw SnapshotError("catalog: unknown campaign '" + campaign + "'");
  }
  // Map nodes are stable and entries are never erased, so the reference
  // outlives the lock.
  return it->second;
}

SnapshotMeta CampaignCatalog::final_meta(const std::string& campaign) const {
  return entry(campaign).reader->snapshots().back();
}

const SnapshotReader& CampaignCatalog::reader(const std::string& campaign) const {
  return *entry(campaign).reader;
}

template <typename T, typename Fn>
std::shared_ptr<const T> CampaignCatalog::cached(Cache<T>& cache, const std::string& key,
                                                 unsigned artifact_cell, Fn compute) {
  std::shared_future<std::shared_ptr<const T>> future;
  std::packaged_task<std::shared_ptr<const T>()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache.find(key);
    if (it != cache.end()) {
      future = it->second;
    } else {
      task = std::packaged_task<std::shared_ptr<const T>()>(std::move(compute));
      future = task.get_future().share();
      cache.emplace(key, future);
    }
  }
  if (task.valid()) {
    obs::add(obs::Metric::svc_cache_misses, 1, artifact_cell);
    task();  // on this thread, lock released — racing callers wait below
    note_resident_bytes();
  } else {
    obs::add(obs::Metric::svc_cache_hits, 1, artifact_cell);
  }
  return future.get();  // rethrows a cached computation failure verbatim
}

std::shared_ptr<const std::vector<HostPosture>> CampaignCatalog::postures(
    const std::string& campaign) {
  return cached(posture_cache_, campaign, kCellPostures,
                [this, campaign]() -> std::shared_ptr<const std::vector<HostPosture>> {
    const CampaignEntry& e = entry(campaign);
    const std::string sidecar = posture_sketch_path(e.path);
    if (options_.use_sketches) {
      auto sketched =
          read_posture_sketch(sidecar, e.path, e.reader->file_fingerprint(),
                              e.reader->snapshots().back().host_count);
      if (sketched) {
        obs::add(obs::Metric::svc_cache_hits, 1, kCellSketch);
        return std::make_shared<const std::vector<HostPosture>>(*std::move(sketched));
      }
      obs::add(obs::Metric::svc_cache_misses, 1, kCellSketch);
    }
    ThreadPool pool(options_.analysis_threads);
    std::vector<HostPosture> postures = collect_postures(*e.reader, pool);
    if (options_.use_sketches && options_.write_sketches) {
      write_posture_sketch(sidecar, e.reader->file_fingerprint(), postures);
    }
    return std::make_shared<const std::vector<HostPosture>>(std::move(postures));
  });
}

std::shared_ptr<const StudyAnalysis> CampaignCatalog::study(const std::string& campaign) {
  return cached(study_cache_, campaign, kCellStudy,
                [this, campaign]() -> std::shared_ptr<const StudyAnalysis> {
    const CampaignEntry& e = entry(campaign);
    AnalysisOptions options;
    options.threads = options_.analysis_threads;
    return std::make_shared<const StudyAnalysis>(analyze_reader(*e.reader, options));
  });
}

std::shared_ptr<const CampaignDiff> CampaignCatalog::diff(const std::string& base,
                                                          const std::string& followup) {
  const std::string key = base + '\x1f' + followup;
  return cached(diff_cache_, key, kCellDiff,
                [this, base, followup]() -> std::shared_ptr<const CampaignDiff> {
    const SnapshotMeta base_week = final_meta(base);
    const SnapshotMeta followup_week = final_meta(followup);
    validate_campaign_chain({base_week, followup_week});
    // Cached postures + one match + one tally — byte-identical to
    // diff_campaigns over the same two files (which is exactly
    // collect + match + tally, see src/diff/diff.cpp).
    const auto b = postures(base);
    const auto f = postures(followup);
    CampaignDiff diff = tally_step(*b, *f, match_postures(*b, *f));
    diff.base_week = base_week;
    diff.followup_week = followup_week;
    return std::make_shared<const CampaignDiff>(std::move(diff));
  });
}

std::shared_ptr<const SeriesAnalysis> CampaignCatalog::series(const std::string& series) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = series_.find(series);
  if (it == series_.end()) throw SnapshotError("catalog: unknown series '" + series + "'");
  if (!it->second.latest) {
    throw SnapshotError("catalog: series '" + series + "' holds " +
                        std::to_string(it->second.builder.size()) +
                        " member(s); an analysis needs >= 2");
  }
  obs::add(obs::Metric::svc_cache_hits, 1, kCellSeries);
  return it->second.latest;
}

std::size_t CampaignCatalog::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t bytes = 0;
  for (const auto& [name, e] : campaigns_) {
    (void)name;
    // The mapped snapshot payload, chunk index, and dictionary — the
    // bytes the resident reader pins.
    for (const SnapshotChunkInfo& chunk : e.reader->chunks()) bytes += chunk.payload_bytes;
    bytes += e.reader->chunks().size() * sizeof(SnapshotChunkInfo);
    bytes += e.reader->cert_count() * 64;  // dict entries + index estimate
  }
  for (const auto& [key, future] : posture_cache_) {
    (void)key;
    if (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) continue;
    try {
      bytes += posture_vector_bytes(*future.get());
    } catch (const std::exception&) {
      // cached failures pin no postures
    }
  }
  for (const auto& [name, se] : series_) {
    (void)name;
    bytes += se.builder.resident_bytes();
    if (se.latest) bytes += sizeof(SeriesAnalysis);
  }
  return bytes;
}

void CampaignCatalog::note_resident_bytes() const {
  if (!obs::enabled()) return;
  obs::gauge_peak(obs::Metric::svc_resident_bytes, resident_bytes());
}

}  // namespace opcua_study::svc
