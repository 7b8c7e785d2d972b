#include "bgpsim/route_gen.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

namespace pl::bgpsim {

namespace {

using bgp::Element;
using bgp::ElementType;
using bgp::Prefix;
using util::Day;
using util::DayInterval;

/// Stateless per-(asn, day, salt) hash for deterministic choices that do
/// not depend on generation order.
std::uint64_t mix(std::uint64_t a, std::uint64_t b,
                  std::uint64_t c = 0) noexcept {
  std::uint64_t state = a * 0x9e3779b97f4a7c15ULL + b;
  state ^= c + 0x517cc1b727220a95ULL + (state << 6) + (state >> 2);
  state = util::splitmix64(state);
  return state;
}

/// A deterministic transit provider ASN for an origin (stable across days).
std::uint32_t provider_for(asn::Asn origin) noexcept {
  // Providers drawn from a stable pool of "large transit" ASNs.
  constexpr std::uint32_t kProviders[] = {701,  1299, 2914, 3356, 3257,
                                          6453, 6762, 7018, 9002, 174};
  return kProviders[mix(origin.value, 0xABCD) % std::size(kProviders)];
}

}  // namespace

OpWorld build_op_world(const rirsim::GroundTruth& truth,
                       const OpWorldConfig& config) {
  OpWorld world;
  world.behavior = plan_behaviors(truth, config.behavior);
  world.attacks = inject_attacks(truth, world.behavior, config.attacks);
  world.misconfigs =
      inject_misconfigs(truth, world.behavior, config.misconfigs);

  const DayInterval window{truth.archive_begin, truth.archive_end};
  const std::vector<AsnOpPlan>& plans = world.behavior.plans;

  // One flap RNG per plan with lives, forked in plan order.
  util::Rng flap_rng(config.behavior.seed ^ 0xF1A9F1A9ULL);
  for (const AsnOpPlan& plan : plans) {
    if (plan.lives.empty()) continue;
    util::Rng rng = flap_rng.fork();
    util::IntervalSet days;
    for (const OpLifePlan& life : plan.lives) {
      if (life.peer_visibility < 2) continue;  // fails >1-peer rule
      const DayInterval visible = life.days.intersect(window);
      if (visible.empty()) continue;
      days.add(visible);
      // Routine BGP flaps: short sub-timeout holes in the activity (routes
      // transiently withdrawn, outages). These dominate the raw
      // activity-gap distribution (Fig. 3: ~70% of gaps are <= 30 days)
      // without splitting operational lives. Life endpoints are never
      // chipped — they are the ground truth the lifetime builder must
      // recover.
      const auto flaps =
          static_cast<int>(static_cast<double>(visible.length()) / 1500.0);
      for (int f = 0; f < flaps; ++f) {
        const util::Day hole_start =
            visible.first +
            static_cast<util::Day>(rng.uniform(1, visible.length() - 2));
        const auto hole_len = 1 + rng.geometric_days(0.35, 20);
        DayInterval hole{hole_start,
                         hole_start + static_cast<util::Day>(hole_len) - 1};
        hole.first = std::max<util::Day>(hole.first, visible.first + 1);
        hole.last = std::min<util::Day>(hole.last, visible.last - 1);
        if (!hole.empty()) days.subtract(hole);
      }
    }
    world.activity.mark_active(plan.asn, std::move(days));
  }
  return world;
}

RouteGenerator::RouteGenerator(
    const OpWorld& world, const bgp::CollectorInfrastructure& infrastructure,
    std::uint64_t seed, NoiseConfig noise)
    : world_(&world),
      infrastructure_(&infrastructure),
      seed_(seed),
      noise_(noise) {
  plans_.reserve(world.behavior.plans.size());
  for (const AsnOpPlan& plan : world.behavior.plans) {
    plans_.push_back(&plan);
    by_asn_[plan.asn.value].push_back(&plan);
  }
}

void RouteGenerator::emit_plan(
    const AsnOpPlan& plan, Day day,
    const std::vector<std::pair<bgp::CollectorId, asn::Asn>>& peers,
    std::vector<Element>& out) const {
  const OpLifePlan* active = nullptr;
  for (const OpLifePlan& life : plan.lives)
    if (life.days.contains(day)) {
      active = &life;
      break;
    }
  if (active == nullptr) return;
  // Honour the flap holes punched into the activity table: on a flap day
  // the routes are transiently withdrawn, so no elements are observed.
  // (China-filtered lives are absent from the table but do emit elements —
  // to their single peer — which the >1-peer rule then discards.)
  if (active->peer_visibility >= 2) {
    const util::IntervalSet* days = world_->activity.activity(plan.asn);
    if (days == nullptr || !days->contains(day)) return;
  }

  const int visibility = std::min<int>(active->peer_visibility,
                                       static_cast<int>(peers.size()));
  const std::uint32_t upstream =
      active->upstream != 0 ? active->upstream : provider_for(plan.asn);

  const asn::Asn prefix_owner =
      active->victim != 0 ? asn::Asn{active->victim} : plan.asn;
  for (int p = 0; p < active->prefixes_per_day; ++p) {
    const Prefix prefix = origin_prefix(prefix_owner, p);
    for (int v = 0; v < visibility; ++v) {
      const std::uint64_t h =
          mix(plan.asn.value, static_cast<std::uint64_t>(v), 0x9999);
      const auto& [collector, peer] = peers[h % peers.size()];
      Element element;
      element.day = day;
      element.type = ElementType::kRibEntry;
      element.collector = collector;
      element.peer = peer;
      element.prefix = prefix;
      // Path: peer .. transit .. upstream .. origin.
      std::vector<asn::Asn> hops;
      hops.push_back(peer);
      const std::uint32_t transit = provider_for(asn::Asn{upstream});
      if (transit != upstream && transit != plan.asn.value)
        hops.push_back(asn::Asn{transit});
      if (upstream != plan.asn.value) hops.push_back(asn::Asn{upstream});
      hops.push_back(plan.asn);
      element.path = bgp::AsPath(std::move(hops));
      out.push_back(std::move(element));
    }
  }
}

std::vector<Element> RouteGenerator::updates_for_day(
    Day day, const std::unordered_set<std::uint32_t>* watchlist) const {
  // Diff the (noise-free) tables of day-1 and day, keyed by (peer, prefix).
  const NoiseConfig no_noise{0, 0, 0, 0};
  RouteGenerator quiet(*world_, *infrastructure_, seed_, no_noise);
  const auto before = quiet.elements_for_day(day - 1, watchlist);
  const auto after = quiet.elements_for_day(day, watchlist);

  // A peer's table holds one best route per prefix; when a day's elements
  // carry the same (peer, prefix) twice (a MOAS at that peer), the
  // last-applied route wins — dedupe both sides before diffing.
  const auto key = [](const Element& e) {
    return std::make_tuple(e.peer.value, e.prefix);
  };
  std::map<std::tuple<std::uint32_t, Prefix>, const Element*> table_before;
  for (const Element& e : before) table_before[key(e)] = &e;
  std::map<std::tuple<std::uint32_t, Prefix>, const Element*> table_after;
  for (const Element& e : after) table_after[key(e)] = &e;

  std::vector<Element> updates;
  for (const auto& [route_key, element] : table_after) {
    const auto it = table_before.find(route_key);
    if (it != table_before.end() && it->second->path == element->path)
      continue;
    Element announce = *element;
    announce.day = day;
    announce.type = ElementType::kAnnouncement;
    updates.push_back(std::move(announce));
  }
  for (const auto& [route_key, element] : table_before) {
    if (table_after.contains(route_key)) continue;
    Element withdraw;
    withdraw.day = day;
    withdraw.type = ElementType::kWithdrawal;
    withdraw.collector = element->collector;
    withdraw.peer = element->peer;
    withdraw.prefix = element->prefix;
    updates.push_back(std::move(withdraw));
  }
  return updates;
}

Prefix RouteGenerator::origin_prefix(asn::Asn asn, int index) {
  // Deterministic /16 or /20 per (asn, index) inside 1.0.0.0..223.255.255.255.
  const std::uint64_t h = mix(asn.value, static_cast<std::uint64_t>(index));
  const auto a = static_cast<std::uint32_t>(1 + (h % 222));
  const auto b = static_cast<std::uint32_t>((h >> 16) & 0xFF);
  const auto c = static_cast<std::uint32_t>((h >> 24) & 0xF0);
  const bool wide = (h & 1) != 0;
  const std::uint32_t address =
      (a << 24) | (b << 16) | (wide ? 0u : (c << 8));
  return Prefix::ipv4(address, wide ? 16 : 20);
}

std::vector<Element> RouteGenerator::elements_for_day(
    Day day, const std::unordered_set<std::uint32_t>* watchlist) const {
  std::vector<Element> out;

  // Flattened peer list for visibility assignment.
  std::vector<std::pair<bgp::CollectorId, asn::Asn>> peers;
  for (const bgp::Collector& collector : infrastructure_->collectors)
    for (const asn::Asn peer : collector.peers)
      peers.emplace_back(collector.id, peer);
  if (peers.empty()) return out;

  if (watchlist != nullptr && watchlist->size() <= 64) {
    // Sorted drain: the watchlist is an unordered_set, so iterate its
    // elements in ASN order to keep the emitted element order (and thus the
    // downstream archives) bit-identical run to run.
    std::vector<std::uint32_t> watched(watchlist->begin(), watchlist->end());
    std::sort(watched.begin(), watched.end());
    for (const std::uint32_t asn_value : watched) {
      const auto it = by_asn_.find(asn_value);
      if (it == by_asn_.end()) continue;
      for (const AsnOpPlan* plan : it->second)
        emit_plan(*plan, day, peers, out);
    }
  } else {
    for (const AsnOpPlan* plan : plans_) {
      if (watchlist && !watchlist->contains(plan->asn.value)) continue;
      emit_plan(*plan, day, peers, out);
    }
  }

  if (watchlist != nullptr) return out;

  // Noise: bound by a slice of the day's element count, deterministic.
  const auto noise_budget = static_cast<std::size_t>(
      static_cast<double>(out.size()) *
      (noise_.long_prefix_rate + noise_.short_prefix_rate + noise_.loop_rate +
       noise_.spurious_rate));
  for (std::size_t n = 0; n < noise_budget; ++n) {
    const std::uint64_t h = mix(static_cast<std::uint64_t>(day), n, seed_);
    Element junk;
    junk.day = day;
    junk.type = ElementType::kAnnouncement;
    const auto& [collector, peer] = peers[h % peers.size()];
    junk.collector = collector;
    junk.peer = peer;
    const double kind = static_cast<double>(h >> 32) / 4294967296.0;
    const double total = noise_.long_prefix_rate + noise_.short_prefix_rate +
                         noise_.loop_rate + noise_.spurious_rate;
    const asn::Asn random_origin{
        static_cast<std::uint32_t>(1 + (h % 4000000))};
    if (kind < noise_.long_prefix_rate / total) {
      junk.prefix = Prefix::ipv4(static_cast<std::uint32_t>(h), 28);
      junk.path = bgp::AsPath({peer.value, random_origin.value});
    } else if (kind <
               (noise_.long_prefix_rate + noise_.short_prefix_rate) / total) {
      junk.prefix = Prefix::ipv4(static_cast<std::uint32_t>(h) & 0xFE000000,
                                 6);
      junk.path = bgp::AsPath({peer.value, random_origin.value});
    } else if (kind < (noise_.long_prefix_rate + noise_.short_prefix_rate +
                       noise_.loop_rate) /
                          total) {
      junk.prefix = Prefix::ipv4(static_cast<std::uint32_t>(h), 16);
      junk.path = bgp::AsPath({peer.value, random_origin.value, 3356,
                               random_origin.value});
    } else {
      // Spurious single-peer sighting of a random ASN.
      junk.prefix = Prefix::ipv4(static_cast<std::uint32_t>(h), 18);
      junk.path = bgp::AsPath({peer.value, random_origin.value});
    }
    out.push_back(std::move(junk));
  }
  return out;
}

}  // namespace pl::bgpsim
