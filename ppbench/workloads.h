// The benchmark's workloads. Each runs its closed loop, checks every
// output, and fills the report with the end-to-end metrics (untraced run)
// or the per-layer metrics (traced run).

#pragma once

#include "harness.h"

namespace ppbench {

/// MNIST-2 images streamed through the in-process PpStreamEngine with
/// ILP-placed stage threads, 512-bit keys.
void RunStreamMnist2(const Options& options, Report* report);

/// MNIST-2 images in PackedBatchLanes()-wide batches through
/// RunPackedBatchInference with an nproc-thread pool, 1024-bit keys.
void RunLanesMnist2(const Options& options, Report* report);

/// nproc data-provider sessions running Heart inferences back to back over
/// loopback TCP against one ModelProviderTcpServer, 2048-bit keys.
void RunTcpHeart(const Options& options, Report* report);

}  // namespace ppbench
