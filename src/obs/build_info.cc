#include "obs/build_info.h"

#include "common/json.h"

namespace subex {

std::string BuildInfoJson() {
#if defined(__clang__)
  const char* compiler = "clang " __VERSION__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
#ifdef SUBEX_BUILD_TYPE
  const char* build_type = SUBEX_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
  return JsonObject()
      .Add("compiler", compiler)
      .Add("cxx_standard", static_cast<std::uint64_t>(__cplusplus))
      .Add("build_type", build_type)
      // Constant since every build is observable; kept so the kStats
      // schema does not change.
      .Add("obs_enabled", true)
      .Build();
}

}  // namespace subex
