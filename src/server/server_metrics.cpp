#include "server/server_metrics.hpp"

namespace tcsa {

const ServerMetrics& server_metrics() {
  static const ServerMetrics metrics{
      obs::register_counter("tcsa_server_sessions_opened_total",
                            "Client sessions accepted by the air server"),
      obs::register_counter("tcsa_server_sessions_closed_total",
                            "Client sessions closed (any reason)"),
      obs::register_counter("tcsa_server_frames_sent_total",
                            "Page/control frames queued to sessions"),
      obs::register_counter("tcsa_server_frames_encoded_total",
                            "Frame bodies encoded (shared by reference "
                            "across subscribers)"),
      obs::register_counter("tcsa_server_bytes_queued_total",
                            "Wire bytes queued to session egress queues"),
      obs::register_counter("tcsa_server_bytes_sent_total",
                            "Wire bytes the kernel accepted "
                            "(send/sendmsg return values)"),
      obs::register_counter("tcsa_server_bytes_flushed_total",
                            "Wire bytes of frames fully retired from "
                            "session egress queues"),
      obs::register_counter("tcsa_server_writev_calls_total",
                            "Productive vectored flush syscalls (moved "
                            "bytes; would-block probes are counted in "
                            "flush_eagain instead)"),
      obs::register_counter("tcsa_server_flush_eagain_total",
                            "Flush attempts the kernel refused outright "
                            "(EAGAIN — syscall overhead that moved no "
                            "bytes)"),
      obs::register_counter("tcsa_server_uring_enter_total",
                            "io_uring_enter syscalls submitting batched "
                            "slot-fanout flushes"),
      obs::register_counter("tcsa_server_uring_sqe_batched_total",
                            "sendmsg SQEs submitted through batched "
                            "flushes (one per dirty session per round)"),
      obs::register_counter("tcsa_server_uring_syscalls_saved_total",
                            "Syscalls the batched flush avoided vs the "
                            "one-sendmsg-per-session path (SQEs minus "
                            "enters)"),
      obs::register_counter("tcsa_server_slots_aired_total",
                            "Broadcast slots aired"),
      obs::register_counter("tcsa_server_evictions_total",
                            "Sessions evicted for exceeding the write "
                            "buffer cap (slow clients)"),
      obs::register_counter("tcsa_server_swaps_total",
                            "Hot program swaps activated"),
      obs::register_counter("tcsa_server_swap_rejected_total",
                            "Hot swap requests rejected"),
      obs::register_counter("tcsa_server_tunes_total",
                            "TUNE (subscription) frames processed"),
      obs::register_counter("tcsa_server_reqs_total",
                            "Traced page requests (kReq) received"),
      obs::register_counter("tcsa_server_reqs_completed_total",
                            "Traced requests whose page aired and flushed "
                            "to the requesting session"),
      obs::register_counter("tcsa_server_reqs_dropped_total",
                            "Traced requests dropped from a session's "
                            "pending set (per-session cap exceeded)"),
      obs::register_counter("tcsa_server_reqs_pull_served_total",
                            "Traced requests resolved by an on-demand kPull "
                            "airing (the broadcast-served complement is "
                            "reqs_completed minus this)"),
      obs::register_counter("tcsa_server_pull_reqs_total",
                            "Page demands entering the pull demand table"),
      obs::register_counter("tcsa_server_pull_reqs_duplicate_total",
                            "Demands from a session already waiting for the "
                            "same page (coalesced away, not re-added)"),
      obs::register_counter("tcsa_server_pull_unknown_page_total",
                            "Demands for pages outside the on-air workload "
                            "(acked but never aired)"),
      obs::register_counter("tcsa_server_pull_airings_total",
                            "On-demand kPull airings on the pull channel "
                            "budget"),
      obs::register_counter("tcsa_server_pull_waiters_served_total",
                            "Coalesced waiters satisfied across all pull "
                            "airings (divided by airings = mean coalescing "
                            "factor)"),
      obs::register_counter("tcsa_server_pull_waiters_dropped_total",
                            "Pending pull waiters dropped before airing "
                            "(requester disconnect or a swap shrinking the "
                            "page universe)"),
      obs::register_histogram(
          "tcsa_server_slot_lag_us",
          "How late each slot aired vs its drift-free deadline (us)"),
      obs::register_histogram(
          "tcsa_server_req_delay_us",
          "Traced request service time from kReq receipt to the flush of "
          "the slot airing its page"),
      obs::register_histogram(
          "tcsa_server_pull_delay_us",
          "Traced request service time for requests resolved by a kPull "
          "airing (kReq receipt to the flush of the pull slot)"),
      obs::register_gauge("tcsa_server_sessions",
                          "Currently connected sessions"),
      obs::register_gauge("tcsa_server_generation",
                          "Id of the program generation on air"),
      obs::register_gauge("tcsa_server_queue_depth_bytes",
                          "Bytes queued across all session egress queues "
                          "after the last slot's flush"),
      obs::register_gauge("tcsa_server_loops",
                          "Per-core I/O loops the server shards sessions "
                          "across"),
      obs::register_gauge("tcsa_server_pull_pending_pages",
                          "Distinct pages with pending pull demand"),
      obs::register_gauge("tcsa_server_pull_pending_waiters",
                          "Coalesced waiters pending across all pages"),
      obs::register_gauge("tcsa_server_pull_oldest_wait_slots",
                          "Age (slots) of the oldest pending pull demand"),
      obs::register_counter("tcsa_server_accept_backoffs_total",
                            "Accept passes stopped for a slot because the "
                            "process ran out of descriptors or socket "
                            "memory (the connection waits in the backlog)"),
  };
  return metrics;
}

}  // namespace tcsa
