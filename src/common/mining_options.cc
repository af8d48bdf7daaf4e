#include "common/mining_options.h"

namespace depminer {

Status MiningOptions::Validate() const {
  if (max_g3_error < 0.0 || max_g3_error >= 1.0) {
    return Status::InvalidArgument("max_g3_error must be in [0, 1)");
  }
  return Status::OK();
}

}  // namespace depminer
