#include "src/netsim/fq_codel.h"

#include <algorithm>
#include <utility>

namespace element {
namespace {

constexpr int64_t kQuantumBytes = 1514;

}  // namespace

FqCoDel::FqCoDel(size_t limit_packets)
    : limit_packets_(limit_packets), queue_of_bucket_(kNumBuckets, kNoQueue) {}

size_t FqCoDel::BucketFor(const Packet& pkt) const {
  // Flow ids are already per-connection; a multiplicative hash spreads them.
  uint64_t h = pkt.flow_id * 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(h % kNumBuckets);
}

uint32_t FqCoDel::QueueFor(size_t bucket) {
  uint32_t& q = queue_of_bucket_[bucket];
  if (q == kNoQueue) {
    q = static_cast<uint32_t>(queues_.size());
    queues_.emplace_back(static_cast<uint32_t>(bucket));
  }
  return q;
}

void FqCoDel::PushBack(FlowList* list, uint32_t q) {
  queues_[q].next = kNoQueue;
  if (list->empty()) {
    list->head = q;
  } else {
    queues_[list->tail].next = q;
  }
  list->tail = q;
}

void FqCoDel::PopFront(FlowList* list) {
  list->head = queues_[list->head].next;
  if (list->head == kNoQueue) {
    list->tail = kNoQueue;
  }
}

void FqCoDel::DropFromLongestFlow(SimTime now) {
  // The fattest bucket, the lowest index on a tie; a bucket with no queue
  // holds 0 bytes.
  size_t victim = 0;
  int64_t worst =
      queue_of_bucket_[0] == kNoQueue ? 0 : queues_[queue_of_bucket_[0]].queue.bytes;
  for (const FlowQueue& fq : queues_) {
    if (fq.queue.bytes > worst || (fq.queue.bytes == worst && fq.bucket < victim)) {
      worst = fq.queue.bytes;
      victim = fq.bucket;
    }
  }
  uint32_t q = queue_of_bucket_[victim];
  if (q == kNoQueue || queues_[q].queue.empty()) {
    return;
  }
  // RFC 8290 drops from the head of the fattest flow.
  Packet head = PopHead(&queues_[q].queue);
  total_bytes_ -= head.size_bytes;
  --total_packets_;
  CountDropFromQueue(head, now);
}

bool FqCoDel::Enqueue(Packet pkt, SimTime now) {
  ScopedConservationAudit audit(this);
  if (total_packets_ >= limit_packets_) {
    DropFromLongestFlow(now);
    if (total_packets_ >= limit_packets_) {
      CountDropPreQueue(pkt, now);
      return false;
    }
  }
  uint32_t q = QueueFor(BucketFor(pkt));
  FlowQueue& fq = queues_[q];
  total_bytes_ += pkt.size_bytes;
  ++total_packets_;
  Admit(&fq.queue, std::move(pkt), now);
  if (!fq.active) {
    fq.active = true;
    fq.deficit = kQuantumBytes;
    PushBack(&new_flows_, q);
  }
  return true;
}

std::optional<Packet> FqCoDel::Dequeue(SimTime now) {
  ScopedConservationAudit audit(this);
  for (int guard = 0; guard < 4 * static_cast<int>(kNumBuckets) + 8; ++guard) {
    FlowList* list = !new_flows_.empty() ? &new_flows_ : &old_flows_;
    if (list->empty()) {
      return std::nullopt;
    }
    uint32_t q = list->head;
    FlowQueue& fq = queues_[q];
    if (fq.deficit <= 0) {
      fq.deficit += kQuantumBytes;
      // Move to the back of old_flows_.
      PopFront(list);
      PushBack(&old_flows_, q);
      continue;
    }
    std::optional<Packet> pkt =
        DequeueCoDel(&fq.queue, &fq.codel, now, [this](const Packet& popped) {
          total_bytes_ -= popped.size_bytes;
          --total_packets_;
        });
    if (!pkt.has_value()) {
      // Flow went empty. A flow from new_flows_ gets one more shot on the old
      // list; a flow from old_flows_ becomes inactive.
      PopFront(list);
      if (list == &new_flows_) {
        PushBack(&old_flows_, q);
      } else {
        fq.active = false;
      }
      continue;
    }
    fq.deficit -= pkt->size_bytes;
    return pkt;
  }
  return std::nullopt;
}

}  // namespace element
