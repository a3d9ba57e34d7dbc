// Self-tests of the benchmark's C++ side: the generator's determinism and
// the wire checker's verdicts on crafted frames.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "gen.hpp"
#include "model/serialize.hpp"
#include "net/framing.hpp"
#include "probes.hpp"
#include "receiver.hpp"
#include "util/wire.hpp"

namespace perfbench {
namespace {

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("perfbench_selftest_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(Generator, SameSeedWritesIdenticalInputs) {
  for (const std::string& w : workload_names()) {
    const auto a = fresh_dir(w + "_a"), b = fresh_dir(w + "_b"),
               c = fresh_dir(w + "_c");
    write_inputs(make_inputs(w, 7, 2.0), a.string());
    write_inputs(make_inputs(w, 7, 2.0), b.string());
    write_inputs(make_inputs(w, 8, 2.0), c.string());
    for (const char* f : {"catalog.tcsa", "partner.tcsa", "arrivals.txt"}) {
      EXPECT_FALSE(slurp(a / f).empty()) << w << ' ' << f;
      EXPECT_EQ(slurp(a / f), slurp(b / f)) << w << ' ' << f;
    }
    EXPECT_NE(slurp(a / "arrivals.txt"), slurp(c / "arrivals.txt")) << w;
  }
}

TEST(Generator, GroupMixOfPopularityDoesNotDependOnTheSeed) {
  const tcsa::Workload w = tcsa::make_workload({4, 8, 16}, {10, 30, 60});
  for (const char* shape :
       {"uniform", "zipf", "pareto", "lognormal", "bimodal"}) {
    std::vector<double> first;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      tcsa::Rng rng(seed);
      const std::vector<double> weights =
          page_weights(w, parse_pop_shape(shape), 1.2, rng);
      std::vector<double> per_group(3, 0.0);
      for (PageId p = 0; p < w.total_pages(); ++p) {
        EXPECT_GT(weights[p], 0.0) << shape;
        per_group[static_cast<std::size_t>(w.group_of(p))] += weights[p];
      }
      if (first.empty()) first = per_group;
      for (std::size_t g = 0; g < 3; ++g)
        EXPECT_DOUBLE_EQ(per_group[g], first[g]) << shape;
    }
  }
}

TEST(Generator, GroupSizesCoverEveryShape) {
  for (const char* shape : {"uniform", "normal", "lskewed", "sskewed", "pareto",
                            "lognormal", "bimodal"}) {
    const std::vector<SlotCount> sizes =
        group_sizes(parse_size_shape(shape), 6, 600);
    SlotCount total = 0;
    for (const SlotCount s : sizes) {
      EXPECT_GE(s, 1) << shape;
      total += s;
    }
    EXPECT_EQ(total, 600) << shape;
  }
  EXPECT_NEAR(inverse_normal_cdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(inverse_normal_cdf(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(inverse_normal_cdf(0.01), -2.326348, 1e-5);
}

/// A receiver greeted with generation 1 of the paper's demo workload.
class WireCheck : public ::testing::Test {
 protected:
  void SetUp() override {
    const tcsa::Workload w = tcsa::make_workload({2, 4, 8}, {3, 5, 3});
    double ms = 0.0;
    info_ = schedule_program(w, 3, &ms);
    registry_.add(1, GenInfo{info_, 0, 0, 0});
    rx_ = std::make_unique<Receiver>(registry_, 1000, 1, true);
    std::string hello;
    tcsa::wire_put_u32(hello, 1);
    tcsa::wire_put_u32(hello, 1000);
    tcsa::wire_put_u32(hello, static_cast<std::uint32_t>(info_->program.channels()));
    tcsa::wire_put_u32(hello,
                       static_cast<std::uint32_t>(info_->program.cycle_length()));
    tcsa::wire_put_u64(hello, 0);
    hello += info_->binary;
    feed(tcsa::net::FrameType::kHello, hello);
  }

  void feed(tcsa::net::FrameType type, const std::string& payload) {
    rx_->on_frame(tcsa::net::Frame{type, payload}, 0);
  }

  static std::string page(std::uint64_t slot, std::uint32_t gen,
                          std::uint32_t ch, std::uint32_t p) {
    std::string out;
    tcsa::wire_put_u64(out, slot);
    tcsa::wire_put_u32(out, gen);
    tcsa::wire_put_u32(out, ch);
    tcsa::wire_put_u32(out, p);
    return out;
  }

  static std::string pull(std::uint64_t slot, std::uint32_t p) {
    std::string out;
    tcsa::wire_put_u64(out, slot);
    tcsa::wire_put_u32(out, 1);
    tcsa::wire_put_u32(out, p);
    tcsa::wire_put_u32(out, 1);
    return out;
  }

  static std::string ack(std::uint64_t id, std::uint64_t next_slot,
                         std::uint32_t p, std::uint32_t expected) {
    std::string out;
    tcsa::wire_put_u64(out, id);
    tcsa::wire_put_u64(out, 0);
    tcsa::wire_put_u64(out, 0);
    tcsa::wire_put_u64(out, next_slot);
    tcsa::wire_put_u32(out, p);
    tcsa::wire_put_u32(out, expected);
    tcsa::wire_put_u32(out, 1);
    return out;
  }

  /// (channel, page) of the first occupied cell of column `col`.
  std::pair<std::uint32_t, PageId> cell(SlotCount col) const {
    for (SlotCount ch = 0; ch < info_->program.channels(); ++ch)
      if (info_->program.at(ch, col) != tcsa::kNoPage)
        return {static_cast<std::uint32_t>(ch), info_->program.at(ch, col)};
    return {0, tcsa::kNoPage};
  }

  Registry registry_;
  std::shared_ptr<const ProgramInfo> info_;
  std::unique_ptr<Receiver> rx_;
};

TEST_F(WireCheck, AcceptsTheProgramsOwnPages) {
  const auto [ch, p] = cell(0);
  EXPECT_NO_THROW(feed(tcsa::net::FrameType::kPage, page(0, 1, ch, p)));
  EXPECT_EQ(rx_->pages_received(), 1u);
}

TEST_F(WireCheck, RejectsACorruptedFrame) {
  const auto [ch, p] = cell(0);
  EXPECT_THROW(feed(tcsa::net::FrameType::kPage, page(0, 1, ch, p + 1)),
               WireViolation);
  std::string truncated = page(0, 1, ch, p);
  truncated.pop_back();
  EXPECT_THROW(feed(tcsa::net::FrameType::kPage, truncated), WireViolation);
  tcsa::net::FrameDecoder decoder;
  std::string bytes;
  tcsa::net::append_frame(bytes, tcsa::net::FrameType::kPage, page(0, 1, ch, p));
  bytes[0] ^= 0x5a;  // the magic
  decoder.feed(bytes);
  tcsa::net::Frame frame;
  EXPECT_THROW(decoder.next(frame), std::invalid_argument);
}

TEST_F(WireCheck, RejectsAStaleGeneration) {
  const auto [ch, p] = cell(0);
  EXPECT_THROW(feed(tcsa::net::FrameType::kPage, page(0, 0, ch, p)),
               WireViolation);
}

TEST_F(WireCheck, RejectsAnUnrequestedPull) {
  EXPECT_THROW(feed(tcsa::net::FrameType::kPull, pull(0, 2)), WireViolation);
}

TEST_F(WireCheck, AcceptsAPullThatAnswersARequestOnce) {
  rx_->open(2, 0, 0, 0);  // a patient request sends its kReq at once
  EXPECT_FALSE(rx_->outbox().empty());
  EXPECT_NO_THROW(feed(tcsa::net::FrameType::kPull, pull(0, 2)));
  EXPECT_THROW(feed(tcsa::net::FrameType::kPull, pull(1, 2)), WireViolation);
}

TEST_F(WireCheck, RejectsAnAckWithTheWrongPromise) {
  rx_->open(0, 0, 0, 0);
  const std::uint64_t id = std::uint64_t{1} << 32;
  EXPECT_THROW(feed(tcsa::net::FrameType::kReqAck, ack(id, 0, 0, 7)),
               WireViolation);
}

TEST_F(WireCheck, RejectsADeliveryPastTheSlotPromise) {
  const SlotCount cycle = info_->program.cycle_length();
  const auto [ch, p] = cell(0);
  const SlotCount t = info_->workload.expected_time_of(p);
  rx_->open(p, 0, 0, 0);
  const std::uint64_t id = std::uint64_t{1} << 32;
  // The ack claims next_slot 0; the page then airs a whole cycle later.
  feed(tcsa::net::FrameType::kReqAck,
       ack(id, 0, p, static_cast<std::uint32_t>(t)));
  const std::uint64_t late = static_cast<std::uint64_t>(cycle * ((t / cycle) + 2));
  EXPECT_THROW(feed(tcsa::net::FrameType::kPage,
                    page(late, 1, ch, info_->program.at(ch, 0))),
               WireViolation);
}

}  // namespace
}  // namespace perfbench
