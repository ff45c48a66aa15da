// FQ-CoDel (RFC 8290): deficit-round-robin fair queueing across hashed flow
// buckets, each governed by CoDel. Baseline qdisc in Figure 3.

#ifndef ELEMENT_SRC_NETSIM_FQ_CODEL_H_
#define ELEMENT_SRC_NETSIM_FQ_CODEL_H_

#include <cstdint>
#include <vector>

#include "src/netsim/codel.h"
#include "src/netsim/qdisc.h"

namespace element {

// Flows hash into 1024 buckets, Linux's default; each flow's DRR quantum is
// one 1514-byte frame, and its CoDel runs at CoDel's target and interval.
class FqCoDel : public Qdisc {
 public:
  explicit FqCoDel(size_t limit_packets = 10240);

  bool Enqueue(Packet pkt, SimTime now) override;
  std::optional<Packet> Dequeue(SimTime now) override;
  size_t packet_count() const override { return total_packets_; }
  int64_t byte_count() const override { return total_bytes_; }
  std::string name() const override { return "fq_codel"; }

 private:
  static constexpr size_t kNumBuckets = 1024;
  static constexpr uint32_t kNoQueue = 0xffffffffu;

  // A bucket's queue, made at the bucket's first packet and kept until the
  // qdisc dies: a run pays only for the buckets its flows hash to.
  struct FlowQueue {
    explicit FlowQueue(uint32_t b) : bucket(b) {}
    PacketQueue queue;
    int64_t deficit = 0;
    CoDelState codel;
    uint32_t bucket;           // the bucket this queue serves
    bool active = false;       // on new_flows_ or old_flows_
    uint32_t next = kNoQueue;  // next queue on that list
  };
  // A FIFO of queues linked through FlowQueue::next: a queue is on at most
  // one list, so the links live in the queues and moving a flow between
  // lists allocates nothing.
  struct FlowList {
    uint32_t head = kNoQueue;
    uint32_t tail = kNoQueue;
    bool empty() const { return head == kNoQueue; }
  };

  size_t BucketFor(const Packet& pkt) const;
  // The queue of `bucket`, made on first use.
  uint32_t QueueFor(size_t bucket);
  void DropFromLongestFlow(SimTime now);
  void PushBack(FlowList* list, uint32_t q);
  void PopFront(FlowList* list);

  size_t limit_packets_;
  std::vector<uint32_t> queue_of_bucket_;  // bucket -> index in queues_, or kNoQueue
  std::vector<FlowQueue> queues_;          // in order of each bucket's first packet
  FlowList new_flows_;
  FlowList old_flows_;
  size_t total_packets_ = 0;
  int64_t total_bytes_ = 0;
};

}  // namespace element

#endif  // ELEMENT_SRC_NETSIM_FQ_CODEL_H_
