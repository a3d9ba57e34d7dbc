// adaptive.hpp — the one reschedule entry point of the live server.
//
// When the server starts, or a hot swap hands it a new workload with no
// explicit method, it schedules through choose_schedule: SUSC when Theorem
// 3.1's bound allows it, PAMAD otherwise. So "what airs after a workload
// change" has a single definition.
#pragma once

#include "core/api.hpp"
#include "core/channel_bound.hpp"
#include "model/workload.hpp"

namespace tcsa {

/// Schedules with SUSC when Theorem 3.1's bound allows, PAMAD otherwise.
/// Precondition: channels >= 1.
inline ScheduleOutcome choose_schedule(const Workload& workload,
                                       SlotCount channels) {
  const Method method = channels_sufficient(workload, channels)
                            ? Method::kSusc
                            : Method::kPamad;
  return make_schedule(method, workload, channels);
}

}  // namespace tcsa
