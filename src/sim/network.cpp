#include "sim/network.hpp"

#include <algorithm>

namespace duti {

void RoundContext::send(NodeId to, std::span<const std::uint64_t> payload,
                        std::uint64_t bit_size) {
  // Fill the buffer before touching the outbox: `payload` may view one of
  // its messages.
  Payload words;
  if (!spares_->empty()) {
    words = std::move(spares_->back());
    spares_->pop_back();
  }
  words.assign(payload.begin(), payload.end());
  outbox_->push_back({id_, to, std::move(words), bit_size});
}

NodeBehavior make_byzantine(NodeBehavior inner, ByzantineMode mode) {
  require(static_cast<bool>(inner), "make_byzantine: empty behavior");
  return [inner = std::move(inner), mode](RoundContext& ctx) {
    inner(ctx);
    for (auto& m : ctx.outbox()) {
      if (m.payload.empty()) continue;
      switch (mode) {
        case ByzantineMode::kStuckAtZero:
          m.payload[0] = 0;
          break;
        case ByzantineMode::kStuckAtOne:
          m.payload[0] = 1;
          break;
        case ByzantineMode::kRandomBit:
          m.payload[0] = ctx.rng()() & 1ULL;
          break;
        case ByzantineMode::kAdversarialFlip:
          m.payload[0] ^= 1ULL;
          break;
      }
    }
  };
}

namespace {

void check_fault(const LinkFault& fault, const char* what) {
  require(fault.drop_prob >= 0.0 && fault.drop_prob <= 1.0 &&
              fault.corrupt_prob >= 0.0 && fault.corrupt_prob <= 1.0 &&
              fault.delay_prob >= 0.0 && fault.delay_prob <= 1.0,
          std::string(what) + ": probabilities in [0,1]");
  require(fault.delay_prob == 0.0 || fault.delay_rounds >= 1,
          std::string(what) + ": delay_rounds must be >= 1 when delaying");
}

/// Flip a uniformly chosen bit inside the message's declared bit width.
void corrupt_message(NetMessage& m, Rng& fault_rng) {
  const std::uint64_t width = std::min<std::uint64_t>(
      m.bit_size, 64 * static_cast<std::uint64_t>(m.payload.size()));
  if (width == 0) return;
  const std::uint64_t bit = fault_rng.next_below(width);
  m.payload[bit / 64] ^= 1ULL << (bit % 64);
}

/// The message buffers of one Network::run. Each thread keeps one set
/// between runs, so back-to-back runs (a fresh network per trial is the
/// common pattern) reuse the capacity earlier runs grew. A run nested in a
/// behaviour finds the set borrowed and starts from empty buffers.
struct RunBuffers {
  std::vector<std::vector<NetMessage>> inboxes;
  std::vector<std::vector<NetMessage>> next_inboxes;
  std::vector<NetMessage> outbox;
  // Payload buffers of consumed messages, handed to the next send.
  std::vector<RoundContext::Payload> spares;
  // Delay-faulted messages in flight with their delivery round, in the
  // order they were sent.
  std::vector<std::pair<unsigned, NetMessage>> delayed;
  std::vector<std::uint8_t> halted;
  std::vector<std::uint8_t> crashed;

  void recycle(std::vector<NetMessage>& messages) {
    for (NetMessage& m : messages) spares.push_back(std::move(m.payload));
    messages.clear();
  }
};

thread_local RunBuffers tls_run_buffers;

}  // namespace

Network::Network(std::uint32_t num_nodes)
    : k_(num_nodes),
      edges_(static_cast<std::size_t>(num_nodes) * num_nodes, kNoEdge),
      behaviors_(num_nodes),
      crash_round_(num_nodes, kNoCrash) {
  require(num_nodes >= 1, "Network: need at least one node");
}

void Network::add_edge(NodeId from, NodeId to) {
  require(from < num_nodes() && to < num_nodes(),
          "Network::add_edge: node id out of range");
  require(from != to, "Network::add_edge: no self loops");
  std::uint32_t& edge = edges_[std::size_t{from} * k_ + to];
  if (edge == kNoEdge) edge = kDefaultFault;
}

void Network::add_star(NodeId center) {
  require(center < num_nodes(), "Network::add_star: center out of range");
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (v == center) continue;
    add_edge(v, center);
    add_edge(center, v);
  }
}

void Network::add_complete() {
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (NodeId v = 0; v < num_nodes(); ++v) {
      if (u != v) add_edge(u, v);
    }
  }
}

bool Network::has_edge(NodeId from, NodeId to) const {
  require(from < num_nodes() && to < num_nodes(),
          "Network::has_edge: node id out of range");
  return edges_[std::size_t{from} * k_ + to] != kNoEdge;
}

std::vector<NodeId> Network::neighbors(NodeId node) const {
  require(node < num_nodes(), "Network::neighbors: node id out of range");
  std::vector<NodeId> out;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (edges_[std::size_t{node} * k_ + v] != kNoEdge) out.push_back(v);
  }
  return out;
}

void Network::set_behavior(NodeId node, NodeBehavior behavior) {
  require(node < num_nodes(), "Network::set_behavior: node id out of range");
  require(static_cast<bool>(behavior), "Network::set_behavior: empty behavior");
  behaviors_[node] = std::move(behavior);
}

void Network::set_link_fault(NodeId from, NodeId to, LinkFault fault) {
  require(has_edge(from, to), "Network::set_link_fault: no such edge");
  check_fault(fault, "Network::set_link_fault");
  std::uint32_t& edge = edges_[std::size_t{from} * k_ + to];
  if (edge == kDefaultFault) {
    link_faults_.push_back(fault);
    edge = static_cast<std::uint32_t>(link_faults_.size() + 1);
  } else {
    link_faults_[edge - 2] = fault;
  }
}

void Network::set_default_fault(LinkFault fault) {
  check_fault(fault, "Network::set_default_fault");
  default_fault_ = fault;
}

void Network::schedule_crash(NodeId node, unsigned round) {
  require(node < num_nodes(), "Network::schedule_crash: node id out of range");
  crash_round_[node] = round;
}

void Network::clear_crashes() noexcept {
  std::fill(crash_round_.begin(), crash_round_.end(), kNoCrash);
}

NetworkStats Network::run(Rng& rng, unsigned max_rounds) {
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (!behaviors_[v]) {
      throw Error("Network::run: node " + std::to_string(v) +
                  " has no behavior");
    }
  }
  NetworkStats stats;
  // Borrow this thread's buffers for the run and hand them back at the end.
  RunBuffers buf = std::move(tls_run_buffers);
  auto& [inboxes, next_inboxes, outbox, spares, delayed, halted, crashed] =
      buf;
  inboxes.resize(k_);
  next_inboxes.resize(k_);
  halted.assign(k_, 0);
  crashed.assign(k_, 0);

  for (unsigned round = 0; round < max_rounds; ++round) {
    // Fire scheduled crash-stop faults before the round executes.
    bool any_active = false;
    for (NodeId v = 0; v < k_; ++v) {
      if (!crashed[v] && round >= crash_round_[v]) {
        crashed[v] = 1;
        ++stats.nodes_crashed;
      }
      any_active = any_active || (!halted[v] && !crashed[v]);
    }
    if (!any_active) break;

    // Delayed messages due this round join the regular inboxes.
    std::size_t still_delayed = 0;
    for (std::size_t i = 0; i < delayed.size(); ++i) {
      if (delayed[i].first == round) {
        inboxes[delayed[i].second.to].push_back(std::move(delayed[i].second));
      } else {
        if (still_delayed != i) delayed[still_delayed] = std::move(delayed[i]);
        ++still_delayed;
      }
    }
    delayed.erase(delayed.begin() + static_cast<std::ptrdiff_t>(still_delayed),
                  delayed.end());

    for (NodeId v = 0; v < k_; ++v) {
      std::vector<NetMessage>& inbox = inboxes[v];
      if (halted[v] || crashed[v]) {
        // The node will never read these; keep the bit audit balanced.
        stats.messages_lost_to_halted += inbox.size();
        buf.recycle(inbox);
        continue;
      }
      stats.messages_delivered += inbox.size();
      RoundContext ctx(v, round, inbox, outbox, spares, rng());
      behaviors_[v](ctx);
      if (ctx.halted()) halted[v] = 1;
      buf.recycle(inbox);
      const std::uint32_t* edges_from_v = &edges_[std::size_t{v} * k_];
      for (NetMessage& m : outbox) {
        if (m.to >= k_ || edges_from_v[m.to] == kNoEdge) {
          throw InvalidArgument("Network::run: node " + std::to_string(v) +
                                " sent along a non-edge to " +
                                std::to_string(m.to));
        }
        ++stats.messages_sent;
        stats.bits_sent += m.bit_size;
        const LinkFault& fault = fault_of(edges_from_v[m.to]);
        if (!fault.is_clean()) {
          if (fault.in_outage(round)) {
            ++stats.messages_lost_to_outage;
            spares.push_back(std::move(m.payload));
            continue;
          }
          if (fault.in_burst(round)) {
            Rng fault_rng = make_rng(rng(), 0xFA17ULL, v, m.to, round);
            if (fault_rng.next_bernoulli(fault.drop_prob)) {
              ++stats.messages_dropped;
              spares.push_back(std::move(m.payload));
              continue;
            }
            if (!m.payload.empty() &&
                fault_rng.next_bernoulli(fault.corrupt_prob)) {
              corrupt_message(m, fault_rng);
              ++stats.messages_corrupted;
            }
            if (fault.delay_prob > 0.0 &&
                fault_rng.next_bernoulli(fault.delay_prob)) {
              ++stats.messages_delayed;
              delayed.emplace_back(round + 1 + fault.delay_rounds,
                                   std::move(m));
              continue;
            }
          }
        }
        next_inboxes[m.to].push_back(std::move(m));
      }
      outbox.clear();
    }
    inboxes.swap(next_inboxes);
    ++stats.rounds_executed;
  }

  // Messages still undelivered when the run ends were sent to nodes that
  // will never read them; account them so sent == delivered + lost.
  for (auto& inbox : inboxes) {
    stats.messages_lost_to_halted += inbox.size();
    buf.recycle(inbox);
  }
  stats.messages_lost_to_halted += delayed.size();
  for (auto& entry : delayed) spares.push_back(std::move(entry.second.payload));
  delayed.clear();
  tls_run_buffers = std::move(buf);
  return stats;
}

}  // namespace duti
