#include "cache/stats.h"

#include <sstream>

namespace ids::cache {

std::string CacheStats::to_string() const {
  std::ostringstream os;
  os << "hits{local_dram=" << hits_local_dram << " local_ssd=" << hits_local_ssd
     << " remote_dram=" << hits_remote_dram << " remote_ssd=" << hits_remote_ssd
     << " backing=" << hits_backing << "} misses=" << misses
     << " puts=" << puts << " spills=" << spills_to_ssd
     << " ssd_drops=" << ssd_drops
     << " bytes{r=" << bytes_read << " w=" << bytes_written << "}";
  return os.str();
}

}  // namespace ids::cache
