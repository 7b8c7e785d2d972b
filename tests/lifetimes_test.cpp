#include <gtest/gtest.h>

#include <sstream>

#include "lifetimes/admin.hpp"
#include "lifetimes/dataset_io.hpp"
#include "lifetimes/op.hpp"
#include "lifetimes/sensitivity.hpp"
#include "util/strings.hpp"

namespace pl::lifetimes {
namespace {

using asn::Rir;
using dele::RecordState;
using dele::Status;
using restore::RestoredArchive;
using restore::StateSpan;
using util::DayInterval;
using util::make_day;

RecordState allocated(util::Day reg_date, const char* country = "DE") {
  RecordState state;
  state.status = Status::kAllocated;
  state.registration_date = reg_date;
  state.country = *asn::CountryCode::parse(country);
  state.opaque_id = 42;
  return state;
}

RecordState reserved() {
  RecordState state;
  state.status = Status::kReserved;
  return state;
}

RecordState available() {
  RecordState state;
  state.status = Status::kAvailable;
  return state;
}

/// Helper building a RestoredArchive from (rir, asn, spans) triples.
RestoredArchive make_archive(
    std::initializer_list<
        std::tuple<Rir, std::uint32_t, std::vector<StateSpan>>> entries) {
  RestoredArchive archive;
  for (std::size_t r = 0; r < asn::kRirCount; ++r)
    archive.registries[r].rir = asn::kAllRirs[r];
  for (const auto& [rir, asn_value, spans] : entries)
    archive.registries[asn::index_of(rir)].spans[asn_value] = spans;
  return archive;
}

const util::Day kEnd = make_day(2021, 3, 1);

TEST(AdminBuilder, SingleLife) {
  const auto archive = make_archive({{Rir::kRipeNcc, 100,
      {{{make_day(2010, 1, 1), make_day(2015, 6, 1)},
        allocated(make_day(2010, 1, 1))}}}});
  const AdminDataset dataset = build_admin_lifetimes(archive, kEnd);
  ASSERT_EQ(dataset.lifetimes.size(), 1u);
  const AdminLifetime& life = dataset.lifetimes[0];
  EXPECT_EQ(life.asn, asn::Asn{100});
  EXPECT_EQ(life.registry, Rir::kRipeNcc);
  EXPECT_EQ(life.registration_date, make_day(2010, 1, 1));
  EXPECT_FALSE(life.open_ended);
  EXPECT_FALSE(life.transferred);
}

TEST(AdminBuilder, OpenEndedLife) {
  const auto archive = make_archive({{Rir::kArin, 100,
      {{{make_day(2010, 1, 1), kEnd}, allocated(make_day(2010, 1, 1))}}}});
  const AdminDataset dataset = build_admin_lifetimes(archive, kEnd);
  ASSERT_EQ(dataset.lifetimes.size(), 1u);
  EXPECT_TRUE(dataset.lifetimes[0].open_ended);
}

TEST(AdminBuilder, ReservedGapSameRegDateMerges) {
  // Returned to the previous owner: one life (4.1).
  const auto reg = make_day(2010, 1, 1);
  const auto archive = make_archive({{Rir::kArin, 100,
      {{{make_day(2010, 1, 1), make_day(2012, 1, 1)}, allocated(reg)},
       {{make_day(2012, 1, 2), make_day(2012, 3, 1)}, reserved()},
       {{make_day(2012, 3, 2), make_day(2016, 1, 1)}, allocated(reg)}}}});
  const AdminDataset dataset = build_admin_lifetimes(archive, kEnd);
  ASSERT_EQ(dataset.lifetimes.size(), 1u);
  EXPECT_EQ(dataset.lifetimes[0].days,
            (DayInterval{make_day(2010, 1, 1), make_day(2016, 1, 1)}));
}

TEST(AdminBuilder, ReservedGapNewRegDateSplits) {
  // Re-allocated to someone else: two lives.
  const auto archive = make_archive({{Rir::kArin, 100,
      {{{make_day(2010, 1, 1), make_day(2012, 1, 1)},
        allocated(make_day(2010, 1, 1))},
       {{make_day(2012, 1, 2), make_day(2012, 6, 1)}, reserved()},
       {{make_day(2012, 6, 2), make_day(2012, 12, 1)}, available()},
       {{make_day(2013, 1, 1), make_day(2016, 1, 1)},
        allocated(make_day(2013, 1, 1))}}}});
  const AdminDataset dataset = build_admin_lifetimes(archive, kEnd);
  ASSERT_EQ(dataset.lifetimes.size(), 2u);
  EXPECT_EQ(dataset.lifetimes[0].registration_date, make_day(2010, 1, 1));
  EXPECT_EQ(dataset.lifetimes[1].registration_date, make_day(2013, 1, 1));
}

TEST(AdminBuilder, AfrinicExceptionMergesDespiteNewDate) {
  // Reserved (never available) then re-allocated with a new date: AfriNIC
  // re-allocated to the same holder — one life.
  const auto archive = make_archive({{Rir::kAfrinic, 100,
      {{{make_day(2010, 1, 1), make_day(2012, 1, 1)},
        allocated(make_day(2010, 1, 1))},
       {{make_day(2012, 1, 2), make_day(2012, 3, 1)}, reserved()},
       {{make_day(2012, 3, 2), make_day(2016, 1, 1)},
        allocated(make_day(2012, 3, 2))}}}});
  const AdminDataset dataset = build_admin_lifetimes(archive, kEnd);
  ASSERT_EQ(dataset.lifetimes.size(), 1u);
}

TEST(AdminBuilder, NonAfrinicReservedNewDateSplits) {
  // Identical shape under ARIN: the exception does not apply -> two lives.
  const auto archive = make_archive({{Rir::kArin, 100,
      {{{make_day(2010, 1, 1), make_day(2012, 1, 1)},
        allocated(make_day(2010, 1, 1))},
       {{make_day(2012, 1, 2), make_day(2012, 3, 1)}, reserved()},
       {{make_day(2012, 3, 2), make_day(2016, 1, 1)},
        allocated(make_day(2012, 3, 2))}}}});
  const AdminDataset dataset = build_admin_lifetimes(archive, kEnd);
  EXPECT_EQ(dataset.lifetimes.size(), 2u);
}

TEST(AdminBuilder, RegDateCorrectionWhileAllocatedMerges) {
  // Adjacent allocated spans with different dates: administrative
  // correction, one life keeping the earliest date.
  const auto archive = make_archive({{Rir::kLacnic, 100,
      {{{make_day(2010, 1, 1), make_day(2013, 1, 1)},
        allocated(make_day(2010, 1, 1))},
       {{make_day(2013, 1, 2), make_day(2016, 1, 1)},
        allocated(make_day(2009, 12, 20))}}}});
  const AdminDataset dataset = build_admin_lifetimes(archive, kEnd);
  ASSERT_EQ(dataset.lifetimes.size(), 1u);
  EXPECT_EQ(dataset.lifetimes[0].registration_date, make_day(2009, 12, 20));
}

TEST(AdminBuilder, GapFreeTransferMerges) {
  const auto reg = make_day(2008, 5, 5);
  const auto archive = make_archive(
      {{Rir::kArin, 100,
        {{{make_day(2008, 5, 5), make_day(2013, 1, 1)}, allocated(reg)}}},
       {Rir::kRipeNcc, 100,
        {{{make_day(2013, 1, 2), make_day(2018, 1, 1)}, allocated(reg)}}}});
  const AdminDataset dataset = build_admin_lifetimes(archive, kEnd);
  ASSERT_EQ(dataset.lifetimes.size(), 1u);
  EXPECT_TRUE(dataset.lifetimes[0].transferred);
  EXPECT_EQ(dataset.lifetimes[0].registry, Rir::kArin);
  EXPECT_EQ(dataset.lifetimes[0].days.last, make_day(2018, 1, 1));
}

TEST(AdminBuilder, GappedTransferSplits) {
  const auto archive = make_archive(
      {{Rir::kArin, 100,
        {{{make_day(2008, 5, 5), make_day(2013, 1, 1)},
          allocated(make_day(2008, 5, 5))}}},
       {Rir::kRipeNcc, 100,
        {{{make_day(2013, 3, 1), make_day(2018, 1, 1)},
          allocated(make_day(2013, 3, 1))}}}});
  const AdminDataset dataset = build_admin_lifetimes(archive, kEnd);
  EXPECT_EQ(dataset.lifetimes.size(), 2u);
}

TEST(AdminBuilder, BackdatesFirstFileLivesToRegDate) {
  // Two ASNs: one present from the registry's first observed day with an
  // old registration date (backdated), one born later (not backdated).
  const auto archive = make_archive(
      {{Rir::kRipeNcc, 100,
        {{{make_day(2003, 11, 26), make_day(2018, 1, 1)},
          allocated(make_day(1995, 2, 1))}}},
       {Rir::kRipeNcc, 200,
        {{{make_day(2010, 6, 1), make_day(2018, 1, 1)},
          allocated(make_day(2010, 5, 31))}}}});
  const AdminDataset dataset = build_admin_lifetimes(archive, kEnd);
  ASSERT_EQ(dataset.lifetimes.size(), 2u);
  EXPECT_EQ(dataset.lifetimes[0].days.first, make_day(1995, 2, 1));
  EXPECT_EQ(dataset.lifetimes[1].days.first, make_day(2010, 6, 1));
}

TEST(AdminBuilder, IndexGroupsByAsn) {
  const auto archive = make_archive(
      {{Rir::kArin, 100,
        {{{make_day(2005, 1, 1), make_day(2010, 1, 1)},
          allocated(make_day(2005, 1, 1))},
         {{make_day(2012, 1, 1), make_day(2015, 1, 1)},
          allocated(make_day(2012, 1, 1))}}},
       {Rir::kApnic, 300,
        {{{make_day(2007, 1, 1), kEnd}, allocated(make_day(2007, 1, 1))}}}});
  const AdminDataset dataset = build_admin_lifetimes(archive, kEnd);
  EXPECT_EQ(dataset.lifetimes.size(), 3u);
  EXPECT_EQ(dataset.asn_count(), 2u);
  EXPECT_EQ(asn_run(dataset.lifetimes, asn::Asn{100}).size(), 2u);
  EXPECT_EQ(asn_run(dataset.lifetimes, asn::Asn{300}).size(), 1u);
  EXPECT_TRUE(asn_run(dataset.lifetimes, asn::Asn{200}).empty());
  // Lifetimes sorted by (asn, start).
  EXPECT_LE(dataset.lifetimes[0].days.first, dataset.lifetimes[1].days.first);
}

TEST(OpBuilder, TimeoutSplitsAndMerges) {
  bgp::ActivityTable activity;
  activity.mark_active(asn::Asn{7}, DayInterval{100, 120});
  activity.mark_active(asn::Asn{7}, DayInterval{130, 140});   // gap 9
  activity.mark_active(asn::Asn{7}, DayInterval{400, 420});   // gap 259
  const OpDataset at30 = build_op_lifetimes(activity, 30);
  ASSERT_EQ(at30.lifetimes.size(), 2u);
  EXPECT_EQ(at30.lifetimes[0].days, (DayInterval{100, 140}));
  EXPECT_EQ(at30.lifetimes[1].days, (DayInterval{400, 420}));

  const OpDataset at5 = build_op_lifetimes(activity, 5);
  EXPECT_EQ(at5.lifetimes.size(), 3u);

  const OpDataset at300 = build_op_lifetimes(activity, 300);
  EXPECT_EQ(at300.lifetimes.size(), 1u);
}

TEST(Sensitivity, CurvesAreMonotone) {
  bgp::ActivityTable activity;
  // Three ASNs with gaps 5, 40, 400.
  activity.mark_active(asn::Asn{1}, DayInterval{0, 10});
  activity.mark_active(asn::Asn{1}, DayInterval{16, 30});
  activity.mark_active(asn::Asn{2}, DayInterval{0, 10});
  activity.mark_active(asn::Asn{2}, DayInterval{51, 80});
  activity.mark_active(asn::Asn{3}, DayInterval{0, 10});
  activity.mark_active(asn::Asn{3}, DayInterval{411, 500});

  AdminDataset admin;
  for (std::uint32_t a : {1u, 2u, 3u}) {
    AdminLifetime life;
    life.asn = asn::Asn{a};
    life.days = DayInterval{0, 600};
    admin.lifetimes.push_back(life);
  }

  const SensitivityCurves curves = analyze_timeout_sensitivity(
      activity, admin, {1, 5, 40, 400});
  ASSERT_EQ(curves.gap_cdf.size(), 4u);
  EXPECT_DOUBLE_EQ(curves.gap_cdf[0], 0.0);
  EXPECT_DOUBLE_EQ(curves.gap_cdf[1], 1.0 / 3);
  EXPECT_DOUBLE_EQ(curves.gap_cdf[2], 2.0 / 3);
  EXPECT_DOUBLE_EQ(curves.gap_cdf[3], 1.0);
  // <=1 op life fraction at the same thresholds.
  EXPECT_DOUBLE_EQ(curves.one_or_less_cdf[1], 1.0 / 3);
  EXPECT_DOUBLE_EQ(curves.one_or_less_cdf[3], 1.0);
  for (std::size_t i = 1; i < curves.gap_cdf.size(); ++i) {
    EXPECT_GE(curves.gap_cdf[i], curves.gap_cdf[i - 1]);
    EXPECT_GE(curves.one_or_less_cdf[i], curves.one_or_less_cdf[i - 1]);
  }
}

TEST(DatasetIo, JsonMatchesListingOne) {
  AdminLifetime life;
  life.asn = asn::Asn{205334};
  life.registration_date = make_day(2017, 9, 20);
  life.days = DayInterval{make_day(2017, 9, 20), make_day(2021, 2, 11)};
  life.registry = Rir::kRipeNcc;
  EXPECT_EQ(admin_record_json(life),
            "{\"ASN\":205334,\"regDate\":\"2017-09-20\","
            "\"startdate\":\"2017-09-20\",\"enddate\":\"2021-02-11\","
            "\"status\":\"allocated\",\"registry\":\"ripencc\"}");

  OpLifetime op;
  op.asn = asn::Asn{205334};
  op.days = DayInterval{make_day(2017, 10, 5), make_day(2017, 10, 23)};
  EXPECT_EQ(op_record_json(op),
            "{\"ASN\":205334,\"startdate\":\"2017-10-05\","
            "\"enddate\":\"2017-10-23\"}");
}

TEST(DatasetIo, CsvHasHeaderAndRows) {
  AdminDataset dataset;
  AdminLifetime life;
  life.asn = asn::Asn{1};
  life.registration_date = make_day(2000, 1, 1);
  life.days = DayInterval{make_day(2000, 1, 1), make_day(2001, 1, 1)};
  dataset.lifetimes.push_back(life);
  std::ostringstream out;
  ASSERT_TRUE(save_admin_csv(out, dataset).ok());
  const std::string text = out.str();
  const auto lines = util::lines(text);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("reg_date"), std::string_view::npos);
  EXPECT_NE(lines[1].find("2000-01-01"), std::string_view::npos);

  OpDataset op;
  op.lifetimes.push_back(
      OpLifetime{asn::Asn{1}, DayInterval{make_day(2000, 1, 2),
                                          make_day(2000, 2, 2)}});
  std::ostringstream op_out;
  ASSERT_TRUE(save_op_csv(op_out, op).ok());
  const std::string op_text = op_out.str();
  const auto op_lines = util::lines(op_text);
  ASSERT_EQ(op_lines.size(), 2u);
  EXPECT_NE(op_lines[0].find("start_date"), std::string_view::npos);
  EXPECT_NE(op_lines[1].find("2000-01-02"), std::string_view::npos);
}

}  // namespace
}  // namespace pl::lifetimes
