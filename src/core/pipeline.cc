#include "core/pipeline.h"

#include "core/streaming.h"

namespace diurnal::core {

// One pipeline implementation: the batch entry point is the streaming
// engine driven start-to-finish (see core/streaming.h for the staging
// and the equivalence contract).
FleetResult run_fleet(const sim::World& world, const FleetConfig& config) {
  StreamingFleet fleet(world, config);
  return fleet.run_to_completion();
}

recon::BlockObservationConfig block_observation_config(
    const FleetConfig& cfg, const DatasetSpec& ds) {
  recon::BlockObservationConfig oc;
  oc.observers = ds.observers();
  oc.loss = probe::LossModel(cfg.loss);
  oc.window = ds.window();
  oc.prober.kind =
      ds.survey ? probe::ProberKind::kSurvey : probe::ProberKind::kTrinocular;
  oc.one_loss_repair = cfg.one_loss_repair;
  oc.additional_observations = cfg.additional_observations;
  oc.faults = &cfg.faults;
  oc.recon = cfg.recon;
  return oc;
}

// A change whose evidence window overlaps a coverage gap (or whose whole
// reconstruction fell below the confidence floor) may be observers
// failing rather than humans moving.  One day of slack on each side,
// because STL smoothing and CUSUM change-dating can land the excursion
// boundary a few samples off the gap edge.
void annotate_low_evidence(std::vector<DetectedChange>& changes,
                           double evidence_fraction,
                           std::span<const recon::CoverageGap> gaps,
                           double evidence_floor) {
  if (changes.empty()) return;
  const bool all_low = evidence_fraction < evidence_floor;
  constexpr util::SimTime kSlack = util::kSecondsPerDay;
  for (auto& c : changes) {
    if (all_low) {
      c.low_evidence = true;
      continue;
    }
    for (const auto& g : gaps) {
      if (c.start - kSlack < g.end && c.end + kSlack > g.start) {
        c.low_evidence = true;
        break;
      }
    }
  }
}

ChangeAggregator aggregate_changes(const sim::World& world,
                                   const FleetResult& result,
                                   const FleetConfig& config) {
  const auto window = config.dataset.window();
  ChangeAggregator agg(window.start, window.end);
  const auto& blocks = world.blocks();
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const auto& out = result.outcomes[i];
    if (!out.cls.change_sensitive) continue;
    const auto& b = blocks[i];
    agg.add_block(b.cell(), geo::countries()[b.country].continent, out.changes);
  }
  return agg;
}

}  // namespace diurnal::core
