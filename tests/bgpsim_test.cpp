#include <gtest/gtest.h>

#include "bgp/rib.hpp"
#include "bgp/sanitizer.hpp"
#include "bgpsim/route_gen.hpp"
#include "lifetimes/op.hpp"
#include "rirsim/world.hpp"

namespace pl::bgpsim {
namespace {

using rirsim::GroundTruth;
using rirsim::TrueAdminLife;

class OpWorldTest : public ::testing::Test {
 protected:
  static constexpr double kScale = 0.03;

  static const GroundTruth& truth() {
    static const GroundTruth world =
        rirsim::build_world(rirsim::WorldConfig::test_scale(21, kScale));
    return world;
  }

  static const OpWorld& world() {
    static const OpWorld instance = [] {
      OpWorldConfig config;
      config.attacks.scale = kScale;
      config.misconfigs.scale = kScale;
      return build_op_world(truth(), config);
    }();
    return instance;
  }
};

TEST_F(OpWorldTest, PlansHaveSortedDisjointLives) {
  for (const AsnOpPlan& plan : world().behavior.plans) {
    for (std::size_t i = 1; i < plan.lives.size(); ++i)
      EXPECT_GT(plan.lives[i].days.first, plan.lives[i - 1].days.last)
          << asn::to_string(plan.asn);
  }
}

TEST_F(OpWorldTest, CanonicalLivesStayInsideAdminLife) {
  for (const AsnOpPlan& plan : world().behavior.plans) {
    if (plan.kind != BehaviorKind::kCanonical || plan.truth_life_index < 0)
      continue;
    const TrueAdminLife& life =
        truth().lives[static_cast<std::size_t>(plan.truth_life_index)];
    for (const OpLifePlan& op : plan.lives) {
      // Post-deallocation benign lives may be appended by the attack
      // injector; skip those (they start after the admin life ends).
      if (op.days.first > life.days.last) continue;
      EXPECT_TRUE(life.days.contains(op.days))
          << asn::to_string(plan.asn);
    }
  }
}

TEST_F(OpWorldTest, DormantAwakeningsHaveLongDormancy) {
  for (const AsnOpPlan& plan : world().behavior.plans) {
    if (plan.kind != BehaviorKind::kDormantThenAwake) continue;
    if (plan.lives.empty() || plan.truth_life_index < 0) continue;
    const TrueAdminLife& life =
        truth().lives[static_cast<std::size_t>(plan.truth_life_index)];
    const OpLifePlan& wake = plan.lives.back();
    if (wake.days.first > life.days.last) continue;  // appended outside life
    const util::Day previous_end =
        plan.lives.size() > 1 ? plan.lives[plan.lives.size() - 2].days.last
                              : life.days.first - 1;
    EXPECT_GT(wake.days.first - previous_end, 1000)
        << asn::to_string(plan.asn);
  }
}

TEST_F(OpWorldTest, BehaviorOfLifeCoversAllLives) {
  EXPECT_EQ(world().behavior.behavior_of_life.size(), truth().lives.size());
}

TEST_F(OpWorldTest, ChinaFilteredLivesNeverContributeActivity) {
  // A China-filtered life's days are absent from the activity table (the
  // ASN may still be active at other times under other admin lives).
  for (const AsnOpPlan& plan : world().behavior.plans) {
    if (plan.kind != BehaviorKind::kChinaFiltered) continue;
    const util::IntervalSet* days = world().activity.activity(plan.asn);
    if (days == nullptr) continue;
    for (const OpLifePlan& op : plan.lives) {
      if (op.peer_visibility >= 2) continue;  // attack injector additions
      EXPECT_EQ(days->covered_days(op.days), 0)
          << asn::to_string(plan.asn);
    }
  }
}

TEST_F(OpWorldTest, SquatEventsAreLabelled) {
  ASSERT_FALSE(world().attacks.events.empty());
  for (const SquatEvent& event : world().attacks.events) {
    // The event's op life must exist in its plan, marked malicious.
    bool found = false;
    for (const AsnOpPlan& plan : world().behavior.plans) {
      if (!(plan.asn == event.asn)) continue;
      for (const OpLifePlan& op : plan.lives)
        if (op.days == event.days && op.malicious) found = true;
    }
    EXPECT_TRUE(found) << asn::to_string(event.asn);
    EXPECT_TRUE(event.upstream == kHijackFactoryAsn ||
                event.upstream == kBitcanalAsn ||
                event.upstream == kSpammerUpstreamAsn);
  }
}

TEST_F(OpWorldTest, PostDeallocationEventsOutsideAdminLife) {
  bool any = false;
  for (const SquatEvent& event : world().attacks.events) {
    if (!event.post_deallocation) continue;
    any = true;
    const TrueAdminLife& life =
        truth().lives[static_cast<std::size_t>(event.truth_life_index)];
    EXPECT_GT(event.days.first, life.days.last);
  }
  EXPECT_TRUE(any);
}

TEST_F(OpWorldTest, MisconfigOriginsNeverAllocatedAndNonBogon) {
  ASSERT_FALSE(world().misconfigs.events.empty());
  for (const MisconfigEvent& event : world().misconfigs.events) {
    EXPECT_FALSE(truth().lives_by_asn.contains(event.bogus_origin.value))
        << asn::to_string(event.bogus_origin);
    EXPECT_FALSE(asn::is_bogon(event.bogus_origin));
    switch (event.kind) {
      case MisconfigKind::kPrependTypo:
        EXPECT_TRUE(asn::is_doubled_spelling(event.bogus_origin,
                                             event.legitimate));
        break;
      case MisconfigKind::kDigitTypo:
        EXPECT_EQ(asn::spelling_distance(event.bogus_origin,
                                         event.legitimate),
                  1);
        break;
      case MisconfigKind::kInternalLeak:
        EXPECT_GE(asn::digit_count(event.bogus_origin), 10);
        break;
      case MisconfigKind::kUnexplained:
        break;
    }
  }
}

TEST_F(OpWorldTest, ActivityClippedToArchiveWindow) {
  for (const auto& [asn_value, days] : world().activity.entries()) {
    const util::DayInterval span = days.span();
    EXPECT_GE(span.first, truth().archive_begin);
    EXPECT_LE(span.last, truth().archive_end);
  }
}

TEST_F(OpWorldTest, FlapsDoNotSplitLives) {
  // Coalescing at the paper's 30-day timeout must recover exactly the
  // planned visible op lives per ASN (aggregated across that ASN's plans).
  const util::DayInterval window{truth().archive_begin,
                                 truth().archive_end};
  std::map<std::uint32_t, std::vector<util::DayInterval>> planned;
  for (const AsnOpPlan& plan : world().behavior.plans)
    for (const OpLifePlan& op : plan.lives) {
      if (op.peer_visibility < 2) continue;
      const util::DayInterval clipped = op.days.intersect(window);
      if (!clipped.empty()) planned[plan.asn.value].push_back(clipped);
    }
  for (auto& [asn_value, lives] : planned) {
    std::sort(lives.begin(), lives.end(),
              [](const util::DayInterval& a, const util::DayInterval& b) {
                return a.first < b.first;
              });
    std::size_t expected = 0;
    util::DayInterval previous{0, -1};
    for (const util::DayInterval& life : lives) {
      if (previous.empty() || life.first - previous.last - 1 > 30)
        ++expected;
      previous = util::DayInterval{
          std::min(previous.empty() ? life.first : previous.first,
                   life.first),
          std::max(previous.last, life.last)};
    }
    const util::IntervalSet* days =
        world().activity.activity(asn::Asn{asn_value});
    ASSERT_NE(days, nullptr) << asn_value;
    std::vector<lifetimes::OpLifetime> op_lives;
    lifetimes::append_op_lifetimes(asn::Asn{asn_value}, days->runs(), 30,
                                   op_lives);
    EXPECT_EQ(op_lives.size(), expected) << asn_value;
  }
}

TEST_F(OpWorldTest, RouteGeneratorEmitsSaneElements) {
  const bgp::CollectorInfrastructure infra =
      bgp::make_default_infrastructure();
  const RouteGenerator generator(world(), infra, 17);
  const util::Day day = util::make_day(2016, 5, 5);
  const auto elements = generator.elements_for_day(day);
  ASSERT_FALSE(elements.empty());

  bgp::Sanitizer sanitizer;
  bgp::SanitizeStats stats;
  std::size_t with_noise = 0;
  for (const bgp::Element& element : elements) {
    EXPECT_EQ(element.day, day);
    if (!sanitizer.accept(element, stats)) ++with_noise;
  }
  // Noise exists but is a small minority.
  EXPECT_GT(with_noise, 0u);
  EXPECT_LT(static_cast<double>(with_noise),
            0.2 * static_cast<double>(elements.size()));
}

TEST_F(OpWorldTest, RouteGeneratorWatchlistRestricts) {
  const bgp::CollectorInfrastructure infra =
      bgp::make_default_infrastructure();
  const RouteGenerator generator(world(), infra, 17);
  // Find an ASN active on a day.
  const util::Day day = util::make_day(2016, 5, 5);
  std::uint32_t target = 0;
  for (const auto& [asn_value, days] : world().activity.entries())
    if (days.contains(day)) {
      target = asn_value.value;
      break;
    }
  ASSERT_NE(target, 0u);
  const std::unordered_set<std::uint32_t> watchlist = {target};
  const auto elements = generator.elements_for_day(day, &watchlist);
  ASSERT_FALSE(elements.empty());
  for (const bgp::Element& element : elements)
    EXPECT_EQ(element.path.origin(), asn::Asn{target});
}

TEST_F(OpWorldTest, OriginPrefixesDeterministicAndDistinct) {
  const auto a0 = RouteGenerator::origin_prefix(asn::Asn{12345}, 0);
  const auto a0_again = RouteGenerator::origin_prefix(asn::Asn{12345}, 0);
  const auto a1 = RouteGenerator::origin_prefix(asn::Asn{12345}, 1);
  EXPECT_EQ(a0, a0_again);
  EXPECT_NE(a0, a1);
  EXPECT_GE(a0.length(), 8);
  EXPECT_LE(a0.length(), 24);
}

TEST_F(OpWorldTest, UpdatesReconstructTheRib) {
  // Seed per-peer tables from day D's RIB, roll the update streams forward
  // a week, and verify the reconstructed table equals day D+7's snapshot —
  // the consistency a real collector archive guarantees between its RIB
  // dumps and update dumps.
  const bgp::CollectorInfrastructure infra =
      bgp::make_default_infrastructure();
  const NoiseConfig no_noise{0, 0, 0, 0};
  const RouteGenerator generator(world(), infra, 99, no_noise);

  const util::Day start = util::make_day(2015, 4, 1);
  bgp::RibReconstructor reconstructor;
  for (const bgp::Element& element : generator.elements_for_day(start))
    reconstructor.apply(element);
  for (util::Day day = start + 1; day <= start + 7; ++day)
    for (const bgp::Element& element : generator.updates_for_day(day))
      reconstructor.apply(element);

  // Expected final state.
  bgp::RibReconstructor expected;
  for (const bgp::Element& element :
       generator.elements_for_day(start + 7))
    expected.apply(element);

  ASSERT_EQ(reconstructor.total_routes(), expected.total_routes());
  for (const auto& [peer_value, rib] : expected.peers()) {
    const auto it = reconstructor.peers().find(peer_value);
    ASSERT_NE(it, reconstructor.peers().end());
    for (const bgp::Element& route : rib.snapshot(0)) {
      const bgp::AsPath* reconstructed = it->second.route(route.prefix);
      ASSERT_NE(reconstructed, nullptr)
          << route.prefix.to_string() << " via peer " << peer_value;
      EXPECT_EQ(*reconstructed, route.path);
    }
  }
}

TEST_F(OpWorldTest, ElementPathAgreesWithFastPathActivity) {
  // The per-day element stream, pushed through the sanitizer and the
  // >1-peer visibility aggregator, must reproduce the fast-path activity
  // table over a window (for planned ASNs — noise can add strays).
  const bgp::CollectorInfrastructure infra =
      bgp::make_default_infrastructure();
  const RouteGenerator generator(world(), infra, 5);
  const bgp::Sanitizer sanitizer;
  bgp::SanitizeStats stats;
  bgp::VisibilityAggregator aggregator;

  const util::Day window_start = util::make_day(2012, 7, 1);
  const int window_days = 10;
  for (int d = 0; d < window_days; ++d)
    for (const bgp::Element& element :
         generator.elements_for_day(window_start + d))
      if (sanitizer.accept(element, stats)) aggregator.observe(element);
  const bgp::ActivityTable from_elements = aggregator.build();

  // Element-level activity is a superset: the aggregator also sees ASNs as
  // transit hops in other origins' paths (which the paper counts), while
  // the fast path tracks planned origin activity only.
  const util::DayInterval window{window_start,
                                 window_start + window_days - 1};
  for (const AsnOpPlan& plan : world().behavior.plans) {
    const util::IntervalSet* fast =
        world().activity.activity(plan.asn);
    if (fast == nullptr) continue;
    const util::IntervalSet fast_in_window =
        fast->intersect(util::IntervalSet{{window}});
    if (fast_in_window.empty()) continue;
    const util::IntervalSet* observed =
        from_elements.activity(plan.asn);
    ASSERT_NE(observed, nullptr) << asn::to_string(plan.asn);
    // Every fast-path-active day is observed at >=2 peers in the elements.
    EXPECT_EQ(fast_in_window.intersect(*observed).total_days(),
              fast_in_window.total_days())
        << asn::to_string(plan.asn);
  }
}

}  // namespace
}  // namespace pl::bgpsim
