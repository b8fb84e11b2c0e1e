#ifndef SUBEX_OBS_BUILD_INFO_H_
#define SUBEX_OBS_BUILD_INFO_H_

#include <string>

namespace subex {

/// `{"compiler":"gcc 13.2.0 ...","cxx_standard":202002,"build_type":
///   "Release","obs_enabled":true}` — which binary produced a stats dump.
std::string BuildInfoJson();

}  // namespace subex

#endif  // SUBEX_OBS_BUILD_INFO_H_
