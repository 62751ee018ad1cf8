#include "packet/queue.h"

namespace perfsight {

PacketBatch BoundedPacketQueue::dequeue(uint64_t max_packets,
                                        uint64_t max_bytes) {
  // Single-flow fast path: the common case is a queue holding one flow's
  // backlog; returns one merged batch.  With multiple flows at the head we
  // return only the head flow's share this call; callers loop if they want
  // to drain a byte budget across flows (see pop_some).
  if (count_ == 0 || max_packets == 0 || max_bytes == 0) return PacketBatch{};
  PacketBatch& head = front();
  PacketBatch out = take_front(head, max_packets, max_bytes);
  if (head.empty()) pop_front();
  packets_ -= out.packets;
  bytes_ -= out.bytes;
  return out;
}

PacketBatch BoundedPacketQueue::pop_some(uint64_t& budget_packets,
                                         uint64_t& budget_bytes) {
  PacketBatch out = dequeue(budget_packets, budget_bytes);
  budget_packets -= out.packets;
  budget_bytes -= out.bytes > budget_bytes ? budget_bytes : out.bytes;
  return out;
}

}  // namespace perfsight
