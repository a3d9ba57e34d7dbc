#include "online/adaptive.hpp"

#include "core/channel_bound.hpp"

namespace tcsa {

ScheduleOutcome choose_schedule(const Workload& workload,
                                SlotCount channels) {
  const Method method = channels_sufficient(workload, channels)
                            ? Method::kSusc
                            : Method::kPamad;
  return make_schedule(method, workload, channels);
}

}  // namespace tcsa
