#include "proto/fca.hpp"

#include <cassert>

namespace dca::proto {

void FcaNode::start_request(std::uint64_t serial) {
  const cell::ChannelId r = (primary() - use_).first();
  if (r == cell::kNoChannel) {
    complete_blocked(serial, Outcome::kBlockedNoChannel, 0);
    return;
  }
  use_.insert(r);
  complete_acquired(serial, r, Outcome::kAcquiredLocal, 0);
}

void FcaNode::on_release(cell::ChannelId, std::uint64_t) {
  // Static allocation: nothing to tell anyone.
}

void FcaNode::on_message(const net::Message& msg) {
  // FCA keeps no remote state, but a restarted neighbour still expects a
  // resync reply before re-admitting traffic.
  if (handle_resync(msg)) return;
  assert(false && "FCA nodes never exchange messages beyond resync");
}

}  // namespace dca::proto
