// Multi-threaded pipeline determinism: sharding by SA must not change the
// protocol's observable behaviour. Accept/drop decisions, output bytes
// and final anti-replay state are compared across worker counts.
#include <gtest/gtest.h>

#include <map>

#include "mapsec/engine/packet_pipeline.hpp"

namespace mapsec::engine {
namespace {

using crypto::Bytes;

constexpr std::size_t kNumSas = 6;
constexpr std::size_t kPacketsPerSa = 12;

Bytes make_header(std::uint32_t spi, std::uint32_t seq) {
  Bytes h(8);
  crypto::store_be32(h.data(), spi);
  crypto::store_be32(h.data() + 4, seq);
  return h;
}

bool sa_uses_ccmp(std::uint32_t sa_id) { return sa_id % 2 == 1; }

/// Build a pipeline with kNumSas SAs (alternating 3DES/ESP and AES/CCMP)
/// keyed deterministically, independent of worker count.
std::unique_ptr<PacketPipeline> make_pipeline(std::size_t workers) {
  auto p = std::make_unique<PacketPipeline>(EngineProfile{}, workers, 0xD5);
  p->load_program("esp-in", esp_inbound_program());
  p->load_program("esp-out", esp_outbound_program());
  p->load_program("ccmp-in", ccmp_inbound_program());
  p->load_program("ccmp-out", ccmp_outbound_program());
  for (std::uint32_t id = 0; id < kNumSas; ++id) {
    crypto::HmacDrbg keys(0x5A5A0000ull ^ id);
    EngineSa sa;
    sa.spi = 0x1000 + id;
    if (sa_uses_ccmp(id)) {
      sa.cipher = protocol::BulkCipher::kAes128;
      sa.enc_key = keys.bytes(16);
    } else {
      sa.cipher = protocol::BulkCipher::kDes3;
      sa.enc_key = keys.bytes(24);
    }
    sa.mac_key = keys.bytes(20);
    p->add_sa(id, sa);
  }
  return p;
}

std::vector<PipelineJob> outbound_jobs() {
  std::vector<PipelineJob> jobs;
  // Interleave SAs so neighbouring jobs land on different workers.
  for (std::size_t seq = 1; seq <= kPacketsPerSa; ++seq) {
    for (std::uint32_t id = 0; id < kNumSas; ++id) {
      PipelineJob j;
      j.sa_id = id;
      j.program = sa_uses_ccmp(id) ? "ccmp-out" : "esp-out";
      j.packet = make_header(0x1000 + id, static_cast<std::uint32_t>(seq));
      const Bytes body = crypto::to_bytes(
          "sa " + std::to_string(id) + " packet " + std::to_string(seq));
      j.packet.insert(j.packet.end(), body.begin(), body.end());
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

struct Observation {
  std::vector<std::tuple<bool, Bytes, Bytes, std::string>> results;
  std::map<std::uint32_t, std::pair<std::uint32_t, std::uint64_t>> replay;
};

bool operator==(const Observation& a, const Observation& b) {
  return a.results == b.results && a.replay == b.replay;
}

/// Protect a batch outbound, then run it inbound with a replayed
/// duplicate and a corrupted packet mixed in; observe everything.
Observation run_everything(std::size_t workers) {
  auto p = make_pipeline(workers);
  const auto out = p->run_batch(outbound_jobs());

  std::vector<PipelineJob> inbound;
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(out[i].accepted) << out[i].drop_reason;
    const std::uint32_t id = static_cast<std::uint32_t>(i % kNumSas);
    PipelineJob j;
    j.sa_id = id;
    j.program = sa_uses_ccmp(id) ? "ccmp-in" : "esp-in";
    j.packet = out[i].header;
    j.packet.insert(j.packet.end(), out[i].payload.begin(),
                    out[i].payload.end());
    inbound.push_back(j);
    if (i == 7) inbound.push_back(j);  // replayed duplicate: must drop
    if (i == 9) {                      // corrupted body: must fail auth
      PipelineJob bad = j;
      bad.packet[12] ^= 0x40;
      inbound.push_back(std::move(bad));
    }
  }

  Observation obs;
  for (const auto& r : p->run_batch(inbound))
    obs.results.emplace_back(r.accepted, r.header, r.payload, r.drop_reason);
  for (std::uint32_t id = 0; id < kNumSas; ++id)
    obs.replay[id] = {p->sa(id).highest_seq, p->sa(id).window};
  return obs;
}

TEST(PipelineTest, WorkerCountDoesNotChangeBehaviour) {
  const Observation one = run_everything(1);
  // Sanity on the single-worker reference: duplicates and corruption
  // dropped, everything else accepted and decrypted.
  std::size_t accepted = 0, dropped = 0;
  for (const auto& [ok, header, payload, reason] : one.results)
    ok ? ++accepted : ++dropped;
  EXPECT_EQ(accepted, kNumSas * kPacketsPerSa);
  EXPECT_EQ(dropped, 2u);
  for (std::uint32_t id = 0; id < kNumSas; ++id)
    EXPECT_EQ(one.replay.at(id).first, kPacketsPerSa);

  EXPECT_TRUE(run_everything(2) == one);
  EXPECT_TRUE(run_everything(4) == one);
  EXPECT_TRUE(run_everything(5) == one);  // workers != SA count, coprime
}

TEST(PipelineTest, StatsAccountForEveryPacket) {
  auto p = make_pipeline(3);
  const auto jobs = outbound_jobs();
  const auto results = p->run_batch(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  std::uint64_t packets = 0;
  double cycles = 0;
  for (const auto& st : p->stats()) {
    packets += st.packets;
    cycles += st.engine_cycles;
    EXPECT_EQ(st.batches, 1u);
  }
  EXPECT_EQ(packets, jobs.size());
  double result_cycles = 0;
  for (const auto& r : results) result_cycles += r.engine_cycles;
  EXPECT_DOUBLE_EQ(cycles, result_cycles);
}

TEST(PipelineTest, UnknownSaIsDroppedNotFatal) {
  auto p = make_pipeline(2);
  PipelineJob j;
  j.sa_id = 999;
  j.program = "esp-in";
  j.packet = Bytes(64, 0xAB);
  const auto r = p->run_batch({j});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_FALSE(r[0].accepted);
  EXPECT_EQ(r[0].drop_reason, "unknown SA");
}

// A job whose program throws inside the batched CCM path (here: an SA
// whose AES key has a length the cipher rejects) must come back dropped
// with the exception's text, without taking its worker thread — and the
// process — down, and without disturbing one byte of any other SA's
// results in the same batch.
TEST(PipelineTest, ThrowingJobInBatchedRunDropsAlone) {
  constexpr std::uint32_t kBadSa = 7;  // same worker as SAs 1, 3 and 5
  const auto ccmp_jobs = [](bool with_bad, const std::string& program) {
    std::vector<PipelineJob> jobs;
    for (std::uint32_t seq = 1; seq <= 4; ++seq) {
      for (std::uint32_t id : {1u, kBadSa, 3u, 5u}) {
        if (id == kBadSa && !with_bad) continue;
        PipelineJob j;
        j.sa_id = id;
        j.program = program;
        j.packet = make_header(0x1000 + id, seq);
        j.packet.resize(j.packet.size() + 48, static_cast<std::uint8_t>(seq));
        jobs.push_back(std::move(j));
      }
    }
    return jobs;
  };
  const auto with_bad_sa = [] {
    auto p = make_pipeline(2);
    EngineSa bad;
    bad.spi = 0x1000 + kBadSa;
    bad.cipher = protocol::BulkCipher::kAes128;
    bad.enc_key = Bytes(5, 0x42);
    p->add_sa(kBadSa, bad);
    return p;
  };

  for (const std::string program : {"ccmp-out", "ccmp-in"}) {
    SCOPED_TRACE(program);
    auto reference = make_pipeline(2);
    const auto clean = reference->run_batch(ccmp_jobs(false, program));
    auto p = with_bad_sa();
    const auto jobs = ccmp_jobs(true, program);
    const auto mixed = p->run_batch(jobs);
    ASSERT_EQ(mixed.size(), jobs.size());

    std::size_t k = 0, bad_drops = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].sa_id == kBadSa) {
        EXPECT_FALSE(mixed[i].accepted);
        EXPECT_NE(mixed[i].drop_reason.find("AES key must be"),
                  std::string::npos)
            << mixed[i].drop_reason;
        EXPECT_EQ(mixed[i].engine_cycles, 0.0);
        ++bad_drops;
        continue;
      }
      const PipelineResult& want = clean[k++];
      EXPECT_EQ(mixed[i].accepted, want.accepted) << i;
      EXPECT_EQ(mixed[i].header, want.header) << i;
      EXPECT_EQ(mixed[i].payload, want.payload) << i;
      EXPECT_EQ(mixed[i].drop_reason, want.drop_reason) << i;
      EXPECT_EQ(mixed[i].engine_cycles, want.engine_cycles) << i;
    }
    EXPECT_EQ(k, clean.size());
    EXPECT_EQ(bad_drops, 4u);
    for (std::uint32_t id : {1u, 3u, 5u}) {
      EXPECT_EQ(p->sa(id).highest_seq, reference->sa(id).highest_seq);
      EXPECT_EQ(p->sa(id).window, reference->sa(id).window);
    }
    // The pipeline is still serving after the throwing jobs.
    const auto again = p->run_batch(ccmp_jobs(false, program));
    EXPECT_EQ(again.size(), clean.size());
  }
}

TEST(PipelineTest, RemovedSaDropsAsUnknown) {
  auto p = make_pipeline(2);
  EXPECT_EQ(p->sa_count(), kNumSas);
  p->remove_sa(1);
  p->remove_sa(1);  // idempotent
  p->remove_sa(999);
  EXPECT_EQ(p->sa_count(), kNumSas - 1);
  PipelineJob j;
  j.sa_id = 1;
  j.program = "ccmp-out";
  j.packet = make_header(0x1001, 1);
  const auto r = p->run_batch({j});
  EXPECT_FALSE(r[0].accepted);
  EXPECT_EQ(r[0].drop_reason, "unknown SA");
}

TEST(PipelineTest, CcmpRejectsTamperedAad) {
  // Flipping a header (AAD) bit after sealing must fail the CCM open.
  auto p = make_pipeline(1);
  PipelineJob out;
  out.sa_id = 1;  // CCMP SA
  out.program = "ccmp-out";
  out.packet = make_header(0x1001, 1);
  const Bytes body = crypto::to_bytes("authenticate the header too");
  out.packet.insert(out.packet.end(), body.begin(), body.end());
  const auto sealed = p->run_batch({out});
  ASSERT_TRUE(sealed[0].accepted);

  PipelineJob in;
  in.sa_id = 1;
  in.program = "ccmp-in";
  in.packet = sealed[0].header;
  in.packet[7] ^= 0x01;  // tweak seq inside the AAD
  in.packet.insert(in.packet.end(), sealed[0].payload.begin(),
                   sealed[0].payload.end());
  const auto r = p->run_batch({in});
  EXPECT_FALSE(r[0].accepted);
  EXPECT_EQ(r[0].drop_reason, "CCM auth failure");
}

}  // namespace
}  // namespace mapsec::engine
