// LinkOracle: the link with its packet engine, SJF index and error model
// out of line, driven in lockstep with a reference copy of the link that
// held all of them inline (the OracleLink and OracleQueue below, kept as
// they were, as RouteOracle keeps a dense BFS). Each seed draws one link's
// parameters and a script of bursts, cuts and recoveries, error-model
// settings, FIFO/SJF switches, capacity changes and fluid charges. Both
// links run the script in their own simulator; after every batch of
// same-time events the test compares the event counts, every delivery
// (time, order and packet fields), every drop decision and L(t) reading,
// and the counters stats(), queue_perf(), queue_bytes() and L(t) expose.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/link.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/packet_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace scda::net {
namespace {

// ------------------------------------------------------------- oracle --
// The queue and link with every member inline: a global arrival list, a
// per-flow SJF chain, an SJF index that lives in every queue, and a
// std::function delivery callback in every link.

class OracleQueue {
 public:
  using Index = PacketPool::Index;
  static constexpr Index kNull = PacketPool::kNull;

  explicit OracleQueue(PacketPool& pool) : pool_(pool) {}

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const PacketQueue::Perf& perf() const noexcept {
    return perf_;
  }
  [[nodiscard]] QueueDiscipline discipline() const noexcept {
    return discipline_;
  }

  void set_discipline(QueueDiscipline d) {
    if (d == discipline_) return;
    discipline_ = d;
    if (d == QueueDiscipline::kSjf) {
      rebuild_sjf_state();
    } else {
      sjf_order_.clear();
    }
  }

  void push(Packet&& p) {
    const Index n = pool_.acquire(std::move(p));
    PacketPool::Slot& slot = pool_.at(n);
    slot.key = ++arrival_seq_;
    slot.prev = tail_;
    slot.next = kNull;
    slot.flow_next = kNull;
    if (tail_ != kNull) {
      pool_.at(tail_).next = n;
    } else {
      head_ = n;
    }
    tail_ = n;
    ++size_;
    if (size_ > perf_.pool_hwm) perf_.pool_hwm = size_;
    if (discipline_ == QueueDiscipline::kSjf) {
      FlowState& st = flows_[slot.pkt.flow];
      if (st.queued == 0) {
        st.head = st.tail = n;
        st.queued = 1;
        index_insert(slot.pkt.flow, st);
      } else {
        pool_.at(st.tail).flow_next = n;
        st.tail = n;
        ++st.queued;
      }
    }
  }

  [[nodiscard]] Index select_next() {
    if (discipline_ != QueueDiscipline::kSjf || size_ == 1) return head_;
    ++perf_.sjf_selects;
    return flows_.find(sjf_order_.begin()->flow)->second.head;
  }

  [[nodiscard]] const Packet& packet(Index n) noexcept {
    return pool_.at(n).pkt;
  }

  void detach(Index n) {
    const PacketPool::Slot& slot = pool_.at(n);
    if (discipline_ == QueueDiscipline::kSjf) {
      FlowState& st = flows_.find(slot.pkt.flow)->second;
      index_erase(slot.pkt.flow, st);
      st.head = slot.flow_next;
      if (st.head == kNull) st.tail = kNull;
      --st.queued;
      if (st.queued > 0) index_insert(slot.pkt.flow, st);
    }
    if (slot.prev != kNull) {
      pool_.at(slot.prev).next = slot.next;
    } else {
      head_ = slot.next;
    }
    if (slot.next != kNull) {
      pool_.at(slot.next).prev = slot.prev;
    } else {
      tail_ = slot.prev;
    }
    --size_;
  }

  void note_transmitted(FlowId flow) {
    if (discipline_ != QueueDiscipline::kSjf) return;
    FlowState& st = flows_[flow];
    if (st.queued > 0) index_erase(flow, st);
    ++st.tx_count;
    if (st.queued > 0) index_insert(flow, st);
  }

 private:
  struct FlowState {
    std::uint64_t tx_count = 0;
    Index head = kNull;
    Index tail = kNull;
    std::uint32_t queued = 0;
  };
  struct SjfKey {
    std::uint64_t count;
    std::uint64_t arrival;
    FlowId flow;
    bool operator<(const SjfKey& o) const noexcept {
      if (count != o.count) return count < o.count;
      if (arrival != o.arrival) return arrival < o.arrival;
      return flow < o.flow;
    }
  };

  void index_insert(FlowId flow, const FlowState& st) {
    sjf_order_.insert(SjfKey{st.tx_count, pool_.at(st.head).key, flow});
  }
  void index_erase(FlowId flow, const FlowState& st) {
    sjf_order_.erase(SjfKey{st.tx_count, pool_.at(st.head).key, flow});
  }
  void rebuild_sjf_state() {
    sjf_order_.clear();
    for (auto& [flow, st] : flows_) {
      st.head = st.tail = kNull;
      st.queued = 0;
    }
    for (Index n = head_; n != kNull; n = pool_.at(n).next) {
      PacketPool::Slot& slot = pool_.at(n);
      slot.flow_next = kNull;
      FlowState& st = flows_[slot.pkt.flow];
      if (st.queued == 0) {
        st.head = st.tail = n;
        st.queued = 1;
      } else {
        pool_.at(st.tail).flow_next = n;
        st.tail = n;
        ++st.queued;
      }
    }
    for (const auto& [flow, st] : flows_) {
      if (st.queued > 0) index_insert(flow, st);
    }
  }

  PacketPool& pool_;
  Index head_ = kNull;
  Index tail_ = kNull;
  std::size_t size_ = 0;
  std::uint64_t arrival_seq_ = 0;
  QueueDiscipline discipline_ = QueueDiscipline::kFifo;
  std::unordered_map<FlowId, FlowState> flows_;
  std::set<SjfKey> sjf_order_;
  PacketQueue::Perf perf_;
};

class OracleLink {
 public:
  OracleLink(sim::Simulator& sim, PacketPool& pool, sim::BitRate capacity,
             double prop_delay_s, std::int64_t queue_limit_bytes)
      : sim_(sim),
        pool_(pool),
        capacity_(capacity),
        prop_delay_(sim::secs(prop_delay_s)),
        queue_limit_bytes_(queue_limit_bytes),
        queue_(pool) {}

  void set_deliver(std::function<void(Packet&&)> fn) {
    deliver_ = std::move(fn);
  }
  void set_discipline(QueueDiscipline d) { queue_.set_discipline(d); }
  [[nodiscard]] QueueDiscipline discipline() const noexcept {
    return queue_.discipline();
  }
  void set_error_model(double p, sim::Rng* rng) {
    loss_probability_ = p;
    loss_rng_ = rng;
  }
  [[nodiscard]] double loss_probability() const noexcept {
    return loss_probability_;
  }
  void set_capacity(sim::BitRate c) noexcept {
    if (c > sim::BitRate{}) capacity_ = c;
  }
  void set_up(bool up) noexcept { up_ = up; }
  [[nodiscard]] bool up() const noexcept { return up_; }
  [[nodiscard]] std::int64_t queue_bytes() const noexcept {
    return queued_bytes_;
  }
  [[nodiscard]] std::int64_t take_interval_arrived_bytes() noexcept {
    const auto v = interval_arrived_bytes_;
    interval_arrived_bytes_ = 0;
    return v;
  }
  [[nodiscard]] std::int64_t interval_arrived_bytes() const noexcept {
    return interval_arrived_bytes_;
  }
  void add_fluid_bytes(std::int64_t bytes) noexcept {
    stats_.fluid_bytes += static_cast<std::uint64_t>(bytes);
    stats_.tx_bytes += static_cast<std::uint64_t>(bytes);
    interval_arrived_bytes_ += bytes;
  }
  void fluid_flow_join() noexcept { ++fluid_flows_; }
  void fluid_flow_leave() noexcept { --fluid_flows_; }
  [[nodiscard]] std::int32_t fluid_flows() const noexcept {
    return fluid_flows_;
  }
  [[nodiscard]] const LinkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const PacketQueue::Perf& queue_perf() const noexcept {
    return queue_.perf();
  }
  [[nodiscard]] double utilization(double elapsed_s) const noexcept {
    if (elapsed_s <= 0) return 0;
    return static_cast<double>(stats_.tx_bytes) * 8.0 /
           (capacity_.bps() * elapsed_s);
  }

  bool enqueue(Packet&& p) {
    if (!up_) {
      ++stats_.dropped_packets;
      stats_.dropped_bytes += static_cast<std::uint64_t>(p.size_bytes);
      return false;
    }
    interval_arrived_bytes_ += p.size_bytes;
    if (loss_probability_ > 0 && loss_rng_ != nullptr &&
        loss_rng_->bernoulli(loss_probability_)) {
      ++stats_.dropped_packets;
      stats_.dropped_bytes += static_cast<std::uint64_t>(p.size_bytes);
      return false;
    }
    if (queued_bytes_ + p.size_bytes > queue_limit_bytes_) {
      ++stats_.dropped_packets;
      stats_.dropped_bytes += static_cast<std::uint64_t>(p.size_bytes);
      return false;
    }
    queued_bytes_ += p.size_bytes;
    ++stats_.enqueued_packets;
    queue_.push(std::move(p));
    if (!transmitting_) start_transmission();
    return true;
  }

 private:
  void start_transmission() {
    transmitting_ = true;
    cur_slot_ = queue_.select_next();
    const Packet& head = queue_.packet(cur_slot_);
    const sim::Time tx_time = sim::ByteCount{head.size_bytes} / capacity_;
    sim_.post_in(tx_time, [this] { on_tx_complete(); });
  }

  void on_tx_complete() {
    const PacketPool::Index n = cur_slot_;
    cur_slot_ = PacketPool::kNull;
    queue_.detach(n);
    PacketPool::Slot& slot = pool_.at(n);
    queued_bytes_ -= slot.pkt.size_bytes;
    ++stats_.tx_packets;
    stats_.tx_bytes += static_cast<std::uint64_t>(slot.pkt.size_bytes);
    queue_.note_transmitted(slot.pkt.flow);
    slot.key = static_cast<std::uint64_t>((sim_.now() + prop_delay_).nanos());
    slot.next = PacketPool::kNull;
    if (inflight_tail_ != PacketPool::kNull) {
      pool_.at(inflight_tail_).next = n;
    } else {
      inflight_head_ = n;
      sim_.post_in(prop_delay_, [this] { deliver_head(); });
    }
    inflight_tail_ = n;
    if (!queue_.empty()) {
      start_transmission();
    } else {
      transmitting_ = false;
    }
  }

  void deliver_head() {
    const PacketPool::Index n = inflight_head_;
    inflight_head_ = pool_.at(n).next;
    Packet p = pool_.take(n);
    if (inflight_head_ != PacketPool::kNull) {
      const auto due = sim::Time::from_nanos(
          static_cast<sim::Time::rep_type>(pool_.at(inflight_head_).key));
      sim_.post_in(Link::delivery_delay(due, sim_.now()),
                   [this] { deliver_head(); });
    } else {
      inflight_tail_ = PacketPool::kNull;
    }
    if (deliver_) deliver_(std::move(p));
  }

  sim::Simulator& sim_;
  PacketPool& pool_;
  sim::BitRate capacity_;
  sim::Time prop_delay_;
  std::int64_t queue_limit_bytes_;
  OracleQueue queue_;
  PacketPool::Index cur_slot_ = PacketPool::kNull;
  PacketPool::Index inflight_head_ = PacketPool::kNull;
  PacketPool::Index inflight_tail_ = PacketPool::kNull;
  std::int64_t queued_bytes_ = 0;
  std::int64_t interval_arrived_bytes_ = 0;
  std::int32_t fluid_flows_ = 0;
  bool transmitting_ = false;
  bool up_ = true;
  std::function<void(Packet&&)> deliver_;
  LinkStats stats_;
  double loss_probability_ = 0.0;
  sim::Rng* loss_rng_ = nullptr;
};

// -------------------------------------------------------------- script --

/// Everything a link exposes, read at one instant.
struct Observed {
  std::int64_t now_ns = 0;
  std::int64_t queue_bytes = 0;
  std::int64_t interval_bytes = 0;
  std::int32_t fluid_flows = 0;
  bool up = false;
  QueueDiscipline discipline = QueueDiscipline::kFifo;
  double loss_probability = 0;
  double utilization = 0;
  // stats()
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t dropped_packets = 0;
  std::uint64_t dropped_bytes = 0;
  std::uint64_t enqueued_packets = 0;
  std::uint64_t fluid_bytes = 0;
  // queue_perf()
  std::uint64_t pool_hwm = 0;
  std::uint64_t sjf_selects = 0;

  bool operator==(const Observed&) const = default;
};

template <typename L>
Observed observe(const sim::Simulator& sim, const L& link) {
  Observed o;
  o.now_ns = sim.now().nanos();
  o.queue_bytes = link.queue_bytes();
  o.interval_bytes = link.interval_arrived_bytes();
  o.fluid_flows = link.fluid_flows();
  o.up = link.up();
  o.discipline = link.discipline();
  o.loss_probability = link.loss_probability();
  o.utilization = link.utilization(1.0);
  const LinkStats s = link.stats();
  o.tx_packets = s.tx_packets;
  o.tx_bytes = s.tx_bytes;
  o.dropped_packets = s.dropped_packets;
  o.dropped_bytes = s.dropped_bytes;
  o.enqueued_packets = s.enqueued_packets;
  o.fluid_bytes = s.fluid_bytes;
  const PacketQueue::Perf q = link.queue_perf();
  o.pool_hwm = q.pool_hwm;
  o.sjf_selects = q.sjf_selects;
  return o;
}

/// One line of a side's log: what an action returned or what a delivery
/// carried, and the link's state right after.
struct Entry {
  char what = 0;  ///< 'e' enqueue, 't' take L(t), 'd' delivery, else action
  std::int64_t value = 0;  ///< enqueue result, L(t) taken, or packet seq
  FlowId flow = kInvalidFlow;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  PacketType type = PacketType::kData;
  std::int32_t size = 0;
  std::int32_t payload = 0;
  std::int64_t ts_ns = 0;
  std::int64_t echo_ns = 0;
  std::int64_t rcvw = 0;
  Observed state;

  bool operator==(const Entry&) const = default;
};

enum class Op : std::uint8_t {
  kBurst,
  kCut,
  kRecover,
  kErrorModel,
  kDiscipline,
  kCapacity,
  kFluidJoin,
  kFluidLeave,
  kFluidBytes,
  kTakeInterval,
};

struct Action {
  sim::Time at;
  Op op;
  std::vector<Packet> packets;  ///< kBurst
  double p = 0;                 ///< kErrorModel probability
  bool with_rng = false;        ///< kErrorModel
  QueueDiscipline discipline = QueueDiscipline::kFifo;
  sim::BitRate capacity;
  std::int64_t bytes = 0;  ///< kFluidBytes
};

struct Params {
  sim::BitRate capacity;
  double prop_delay_s = 0;
  std::int64_t queue_limit_bytes = 0;
};

/// Seeded link parameters and script. Times sit on a coarse grid so that
/// actions share instants with each other and with link events.
void draw(std::uint64_t seed, Params& params, std::vector<Action>& script) {
  sim::Rng rng(seed);
  const double rates[] = {1e6, 8e6, 100e6, 1e9};
  const double delays[] = {0.0, 1e-6, 1.2e-4, 1e-3, 0.01};
  params.capacity =
      sim::BitRate{rates[rng.uniform_int(0, 3)] * rng.uniform(0.5, 1.5)};
  params.prop_delay_s = delays[rng.uniform_int(0, 4)];
  // From below one MTU to about eight full-size packets.
  params.queue_limit_bytes = rng.uniform_int(1'000, 12'500);
  const double tx_1500_s = 1500.0 * 8.0 / params.capacity.bps();
  const double grid_s = tx_1500_s / static_cast<double>(rng.uniform_int(1, 4));

  std::int64_t seqs[5] = {0, 0, 0, 0, 0};
  const std::int64_t n_actions = rng.uniform_int(40, 120);
  for (std::int64_t i = 0; i < n_actions; ++i) {
    Action a;
    a.at = sim::secs(grid_s * static_cast<double>(rng.uniform_int(0, 200)));
    const std::int64_t roll = rng.uniform_int(0, 99);
    if (roll < 45) {
      a.op = Op::kBurst;
      const std::int64_t n = rng.uniform_int(1, 14);
      for (std::int64_t k = 0; k < n; ++k) {
        const std::int64_t f = rng.uniform_int(0, 4);
        if (rng.bernoulli(0.15)) {
          a.packets.push_back(make_ack(FlowId{f}, NodeId{1}, NodeId{0},
                                       seqs[f], a.at, sim::secs(0.5),
                                       rng.uniform_int(0, 1 << 20)));
        } else {
          const auto payload =
              static_cast<std::int32_t>(rng.uniform_int(0, 1460));
          a.packets.push_back(make_data(FlowId{f}, NodeId{0}, NodeId{1},
                                        seqs[f], payload, a.at));
          seqs[f] += payload;
        }
      }
    } else if (roll < 52) {
      a.op = Op::kCut;
    } else if (roll < 60) {
      a.op = Op::kRecover;
    } else if (roll < 66) {
      a.op = Op::kErrorModel;
      const double ps[] = {0.0, 0.05, 0.3, 1.0};
      a.p = ps[rng.uniform_int(0, 3)];
      a.with_rng = rng.bernoulli(0.8);
    } else if (roll < 74) {
      a.op = Op::kDiscipline;
      a.discipline = rng.bernoulli(0.6) ? QueueDiscipline::kSjf
                                        : QueueDiscipline::kFifo;
    } else if (roll < 77) {
      a.op = Op::kCapacity;
      a.capacity = params.capacity * rng.uniform(0.5, 2.0);
    } else if (roll < 83) {
      a.op = Op::kFluidJoin;
    } else if (roll < 87) {
      a.op = Op::kFluidLeave;
    } else if (roll < 93) {
      a.op = Op::kFluidBytes;
      a.bytes = rng.uniform_int(0, 200'000);
    } else {
      a.op = Op::kTakeInterval;
    }
    script.push_back(std::move(a));
  }
}

/// Coverage over all seeds, so a script generator that stopped reaching
/// a case fails the test instead of passing vacuously.
struct Coverage {
  std::uint64_t tail_drops = 0;
  std::uint64_t error_drops = 0;
  std::uint64_t down_drops = 0;
  std::uint64_t cuts_with_queue = 0;
  std::uint64_t cuts_with_wire = 0;
  std::uint64_t switches_with_queue = 0;
  std::uint64_t sjf_selects = 0;
  std::uint64_t fluid_charges = 0;
  std::uint64_t nonzero_takes = 0;
  std::uint64_t deliveries = 0;
};

/// One side of the lockstep run: a simulator, a pool, a link of type L,
/// its own copy of the error-model RNG and its log.
template <typename L>
struct Side {
  sim::Simulator sim;
  PacketPool pool;
  sim::Rng loss_rng;
  std::int64_t queue_limit_bytes;
  L link;
  std::vector<Entry> log;
  std::uint64_t delivered = 0;
  std::int32_t fluid_joined = 0;

  /// The slim link delivers through set_deliver's callback, or with
  /// `hooked` through a hook given at construction, as a Network's do.
  Side(std::uint64_t seed, const Params& prm, bool hooked = false)
      : loss_rng(seed * 7919 + 1),
        queue_limit_bytes(prm.queue_limit_bytes),
        link(make(prm, hooked)) {
    if (!hooked)
      link.set_deliver([this](Packet&& p) { on_deliver(std::move(p)); });
  }

  L make(const Params& prm, bool hooked) {
    if constexpr (std::is_same_v<L, OracleLink>) {
      return L(sim, pool, prm.capacity, prm.prop_delay_s,
               prm.queue_limit_bytes);
    } else {
      const Link::DeliverHook hook = [](void* side, Packet&& p, NodeId at) {
        EXPECT_EQ(at, NodeId{1});
        static_cast<Side*>(side)->on_deliver(std::move(p));
      };
      return L(sim, pool, LinkId{0}, NodeId{0}, NodeId{1}, prm.capacity,
               prm.prop_delay_s, prm.queue_limit_bytes,
               hooked ? hook : nullptr, hooked ? this : nullptr);
    }
  }

  void record(char what, std::int64_t value, const Packet* p = nullptr) {
    Entry e;
    e.what = what;
    e.value = value;
    if (p != nullptr) {
      e.flow = p->flow;
      e.src = p->src;
      e.dst = p->dst;
      e.type = p->type;
      e.size = p->size_bytes;
      e.payload = p->payload_bytes;
      e.ts_ns = p->ts.nanos();
      e.echo_ns = p->echo_ts.nanos();
      e.rcvw = p->rcvw_bytes;
    }
    e.state = observe(sim, link);
    log.push_back(e);
  }

  void on_deliver(Packet&& p) {
    ++delivered;
    record('d', p.seq, &p);
  }

  /// Post every action; `cov` (one side only) tallies what each reached.
  void post(const std::vector<Action>& script, Coverage* cov) {
    for (const Action& a : script) {
      sim.post_at(a.at, [this, &a, cov] { apply(a, cov); });
    }
  }

  void apply(const Action& a, Coverage* cov) {
    switch (a.op) {
      case Op::kBurst:
        for (Packet p : a.packets) {
          const bool was_up = link.up();
          const bool room =
              link.queue_bytes() + p.size_bytes <= queue_limit_bytes;
          const bool lossy = link.loss_probability() > 0;
          const Packet copy = p;
          const bool ok = link.enqueue(std::move(p));
          if (cov != nullptr && !ok) {
            if (!was_up) {
              ++cov->down_drops;
            } else if (room && lossy) {
              ++cov->error_drops;
            } else if (!room) {
              ++cov->tail_drops;
            }
          }
          record('e', ok ? 1 : 0, &copy);
        }
        return;
      case Op::kCut:
        if (cov != nullptr && link.up()) {
          if (link.queue_bytes() > 0) ++cov->cuts_with_queue;
          if (link.stats().tx_packets > delivered) ++cov->cuts_with_wire;
        }
        link.set_up(false);
        break;
      case Op::kRecover:
        link.set_up(true);
        break;
      case Op::kErrorModel:
        link.set_error_model(a.p, a.with_rng ? &loss_rng : nullptr);
        break;
      case Op::kDiscipline:
        if (cov != nullptr && a.discipline != link.discipline() &&
            link.queue_bytes() > 0)
          ++cov->switches_with_queue;
        link.set_discipline(a.discipline);
        break;
      case Op::kCapacity:
        link.set_capacity(a.capacity);
        break;
      case Op::kFluidJoin:
        link.fluid_flow_join();
        ++fluid_joined;
        break;
      case Op::kFluidLeave:
        if (fluid_joined == 0) return;
        link.fluid_flow_leave();
        --fluid_joined;
        break;
      case Op::kFluidBytes:
        if (cov != nullptr) ++cov->fluid_charges;
        link.add_fluid_bytes(a.bytes);
        break;
      case Op::kTakeInterval: {
        const std::int64_t v = link.take_interval_arrived_bytes();
        if (cov != nullptr && v > 0) ++cov->nonzero_takes;
        record('t', v);
        return;
      }
    }
    record(static_cast<char>('A' + static_cast<int>(a.op)), 0);
  }
};

/// Runs one seed in lockstep; returns false at the first mismatch.
bool run_seed(std::uint64_t seed, Coverage& cov) {
  Params prm;
  std::vector<Action> script;
  draw(seed, prm, script);

  Side<OracleLink> ref(seed, prm);
  // Even seeds deliver through a construction hook, odd ones through
  // set_deliver.
  Side<Link> slim(seed, prm, seed % 2 == 0);
  ref.post(script, &cov);
  slim.post(script, nullptr);

  std::size_t compared = 0;
  while (!ref.sim.queue().empty() || !slim.sim.queue().empty()) {
    if (ref.sim.queue().empty() != slim.sim.queue().empty()) {
      ADD_FAILURE() << "one side ran out of events first";
      return false;
    }
    const sim::Time t = ref.sim.queue().next_time();
    if (slim.sim.queue().next_time() != t) {
      ADD_FAILURE() << "next event at " << slim.sim.queue().next_time().nanos()
                    << " ns, oracle at " << t.nanos() << " ns";
      return false;
    }
    const std::uint64_t n_ref = ref.sim.run_until(t);
    const std::uint64_t n_slim = slim.sim.run_until(t);
    if (n_ref != n_slim) {
      ADD_FAILURE() << "ran " << n_slim << " events at " << t.nanos()
                    << " ns, oracle " << n_ref;
      return false;
    }
    if (ref.log.size() != slim.log.size()) {
      ADD_FAILURE() << "log length " << slim.log.size() << ", oracle "
                    << ref.log.size() << " at " << t.nanos() << " ns";
      return false;
    }
    for (; compared < ref.log.size(); ++compared) {
      if (!(ref.log[compared] == slim.log[compared])) {
        ADD_FAILURE() << "entry " << compared << " ('"
                      << ref.log[compared].what << "') differs at "
                      << t.nanos() << " ns";
        return false;
      }
    }
    if (!(observe(ref.sim, ref.link) == observe(slim.sim, slim.link))) {
      ADD_FAILURE() << "link state differs after the events at "
                    << t.nanos() << " ns";
      return false;
    }
  }
  if (ref.sim.perf().scheduled != slim.sim.perf().scheduled ||
      ref.pool.capacity() != slim.pool.capacity()) {
    ADD_FAILURE() << "event or packet-slot totals differ";
    return false;
  }
  cov.sjf_selects += ref.link.queue_perf().sjf_selects;
  cov.deliveries += ref.delivered;
  return true;
}

TEST(LinkOracle, SlimLinkMatchesInlineLinkOverSeeds) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 256; ++seed) {
    SCOPED_TRACE(seed);
    if (!run_seed(seed, cov)) break;
  }
  EXPECT_GT(cov.deliveries, 0u);
  EXPECT_GT(cov.tail_drops, 0u);
  EXPECT_GT(cov.error_drops, 0u);
  EXPECT_GT(cov.down_drops, 0u);
  EXPECT_GT(cov.cuts_with_queue, 0u);
  EXPECT_GT(cov.cuts_with_wire, 0u);
  EXPECT_GT(cov.switches_with_queue, 0u);
  EXPECT_GT(cov.sjf_selects, 0u);
  EXPECT_GT(cov.fluid_charges, 0u);
  EXPECT_GT(cov.nonzero_takes, 0u);
}

}  // namespace
}  // namespace scda::net
