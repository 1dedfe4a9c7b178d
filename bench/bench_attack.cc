// A5 [extension] — Byzantine adversary suite: disclosure probability,
// aggregate bias, detection rate and availability as the compromised
// fraction sweeps 0..30% for each active attack class, unhardened vs
// hardened (ISSUE tracking note: the issue text labels this table A1;
// A1 was already taken by the pc sweep, so it ships as A5).
//
//   disclosure — Sen–Maitra coalition attack on the CPDA share
//     exchange (arXiv 1201.4532): compromised heads engineer tiny
//     rosters and pool shares + digests; the post-epoch solver
//     (attacks::recover) counts honest values actually determined,
//     and every hit is value-verified against the planted reading.
//     Hardened: min_honest_anonymity=4 roster refusal.
//   pollution — a compromised head forges its own digest entry,
//     shifting its cluster sum by exactly +25. Measured as absolute
//     aggregate bias. Hardened: on-air F self-commitment cross-check.
//   replay — compromised nodes capture F announcements and cluster
//     reports, re-injecting them next epoch (readings change across
//     epochs, so an accepted stale frame biases the result). Hardened:
//     epoch-freshness tags (100% rejection expected).
//   withhold — compromised members starve the Vandermonde solve while
//     still announcing F, so naive recovery re-admits them. Hardened:
//     withholder attribution excludes them from the recovery roster.
//
// Each cell runs 2 epochs on one Network (replay needs a past epoch to
// capture from; the adversary state persists). Benign cells
// (fraction = 0) double as the false-positive control: every detection
// counter must stay zero there.
#include <cmath>
#include <cstdint>
#include <vector>

#include "attacks/sen_maitra.h"
#include "bench/bench_util.h"
#include "core/icpda.h"
#include "runner/campaign.h"
#include "sim/metrics.h"

namespace {

double epoch_reading(std::uint32_t epoch) {
  // Distinct per-epoch readings make replayed frames measurably stale.
  return static_cast<double>(epoch);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace icpda;
  const auto keys = bench::default_keys();
  constexpr std::size_t kNodes = 200;
  constexpr std::uint32_t kEpochs = 2;

  runner::Campaign c;
  c.name =
      "A5: adversary suite (disclosure / bias / detection vs compromised "
      "fraction, unhardened vs hardened)";
  c.label = "bench_attack";
  c.experiment = static_cast<std::uint64_t>(bench::Experiment::kAttack);
  c.sweep.categorical("attack", {"disclosure", "pollution", "replay", "withhold"})
      .axis("fraction", {0.0, 0.1, 0.2, 0.3})
      .categorical("hardened", {"off", "on"});
  c.trials = bench::trials();

  c.cell = [&keys](runner::CellContext& ctx) {
    net::Network network(bench::paper_network(kNodes, ctx.seed));
    const bool hardened = ctx.point.count("hardened") == 1;

    core::AdversaryPlan plan;
    plan.attack =
        static_cast<core::AttackClass>(ctx.point.count("attack") + 1);
    plan.compromise_fraction = ctx.point.get("fraction");
    core::AdversaryState st;

    auto& m = ctx.metrics;
    std::uint32_t epochs_to_accept = kEpochs + 1;
    for (std::uint32_t e = 1; e <= kEpochs; ++e) {
      core::IcpdaConfig cfg;
      cfg.timing.close_slack_s = 2.5;
      if (hardened) {
        // Epoch-freshness tags are universal (and false-positive-free);
        // the behavioural countermeasure is the attacked class's own,
        // so each class is measured against its designed defence and
        // the others' side costs stay out of the cell.
        cfg.hardening.epoch_tag = e;
        switch (plan.attack) {
          case core::AttackClass::kDisclosure:
            cfg.hardening.min_honest_anonymity = 4;
            break;
          case core::AttackClass::kPollution:
            cfg.hardening.digest_crosscheck = true;
            break;
          case core::AttackClass::kWithhold:
            cfg.hardening.attribute_withholders = true;
            break;
          case core::AttackClass::kReplay:  // tags ARE the defence
          case core::AttackClass::kTamper:  // baseline witnesses catch it
          case core::AttackClass::kNone:
            break;
        }
      }
      const double reading = epoch_reading(e);
      const auto out = core::run_icpda_epoch(
          network, cfg, proto::constant_reading(reading), keys, plan, st);

      if (!out.accepted()) m.add("rejected_epochs");
      if (out.accepted() && epochs_to_accept > kEpochs) epochs_to_accept = e;
      m.observe("compromised", out.compromised_nodes);
      m.observe("coverage", out.coverage);
      // Attack DETECTIONS claim "someone attacked": they must be zero
      // in benign cells. Roster refusals are a privacy abstention (the
      // anonymity floor declining a risky roster, attack or not) and
      // are tallied separately.
      const std::uint32_t detections =
          out.replay_rejections + out.withholders_flagged + out.crosscheck_alarms;
      m.observe("detections", detections);
      m.observe("rosters_refused", out.rosters_refused);
      if (out.compromised_nodes == 0 && detections > 0) {
        // Benign epoch (nothing compromised) yet a hardening counter
        // fired: a false positive by definition.
        m.add("false_positives", detections);
      }
      // Aggregate bias against the ground truth of the ACCEPTED result:
      // every live reading equals `reading`, so sum should be
      // count * reading whatever subset of the network made it in.
      if (out.accepted() && out.result && out.result->count > 0.0) {
        m.observe("bias",
                  std::abs(out.result->sum - out.result->count * reading));
      }

      // Disclosure post-pass: solve this epoch's coalition ledger while
      // the epoch's compromised set is still current. Every determined
      // value is cross-checked against the planted reading.
      std::uint32_t disclosed = 0;
      std::uint32_t value_verified = 0;
      for (const auto& [key, obs] : st.clusters) {
        if (key.first != st.epoch) continue;
        const auto view = attacks::view_from_observation(obs, st.nodes);
        const auto res = attacks::recover(view);
        disclosed += static_cast<std::uint32_t>(res.disclosed.size());
        if (res.disclosed.empty()) continue;
        const std::vector<double> known(
            view.members.size() - res.honest, reading);
        if (const auto v = attacks::recover_lone_value(view, known);
            v && std::abs(*v - reading) < 1e-6) {
          value_verified += static_cast<std::uint32_t>(res.disclosed.size());
        }
      }
      m.observe("disclosed", disclosed);
      m.observe("disclosed_verified", value_verified);
    }
    m.observe("epochs_to_accept", epochs_to_accept);
    m.observe("replays_injected", st.replays_injected);
    m.observe("shares_withheld", st.shares_withheld);
    m.observe("digests_forged", st.digests_forged);
    m.observe("rosters_engineered", st.rosters_engineered);
    m.observe("attack_events", static_cast<double>(st.replays_injected) +
                                   st.shares_withheld + st.digests_forged +
                                   st.rosters_engineered);
    m.observe("replay_rejections", static_cast<double>(network.metrics().counter(
                                       "icpda.replay_rejected")));
    m.observe("recoveries", static_cast<double>(network.metrics().counter(
                                "icpda.phase2_recovery")));
  };

  c.row = [](const runner::Point& p, const runner::PointSummary& s,
             runner::JsonRow& row) {
    const auto& m = s.metrics;
    row.str("attack", p.label("attack"))
        .num("fraction", p.get("fraction"), 2)
        .str("hardened", p.label("hardened"))
        .num("epochs", s.trials * 2)
        .num("compromised_mean", m.stat("compromised").mean(), 1)
        .num("disclosed_mean", m.stat("disclosed").mean(), 3)
        .num("disclosed_verified_mean", m.stat("disclosed_verified").mean(), 3)
        .num("bias_mean", m.stat("bias").mean(), 3)
        .num("detections_mean", m.stat("detections").mean(), 2)
        .num("rosters_refused_mean", m.stat("rosters_refused").mean(), 1)
        .num("false_positives", m.counter("false_positives"))
        .num("attack_events_mean", m.stat("attack_events").mean(), 1)
        .num("replays_injected_mean", m.stat("replays_injected").mean(), 1)
        .num("replay_rejections_mean", m.stat("replay_rejections").mean(), 1)
        .num("shares_withheld_mean", m.stat("shares_withheld").mean(), 1)
        .num("digests_forged_mean", m.stat("digests_forged").mean(), 1)
        .num("recoveries_mean", m.stat("recoveries").mean(), 1)
        .num("coverage_mean", m.stat("coverage").mean(), 3)
        .num("rejected_rate",
             static_cast<double>(m.counter("rejected_epochs")) /
                 (s.trials * 2.0),
             3)
        .num("epochs_to_accept_mean", m.stat("epochs_to_accept").mean(), 2);
  };

  return runner::bench_main(c, argc, argv);
}
