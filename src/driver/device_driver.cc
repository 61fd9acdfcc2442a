#include "driver/device_driver.h"

#include <algorithm>
#include <thread>

#include "driver/native_registry.h"
#include "oclc/bytecode.h"

namespace haocl::driver {
namespace {

// Static instruction mix of a kernel body: arithmetic instructions are
// counted as flops (f32/f64 ops), memory instructions as byte traffic, and
// branch density decides "irregular". Loops make exact counting impossible
// without running, so the estimate multiplies the static mix by an average
// trip factor — crude, but only the *timing model* consumes it; functional
// results never depend on it.
struct InstructionMix {
  double flops_per_item = 0.0;
  double bytes_per_item = 0.0;
  double branchiness = 0.0;  // Branches / total instructions.
};

InstructionMix AnalyzeKernel(const oclc::Module& module,
                             const oclc::CompiledFunction& kernel) {
  InstructionMix mix;
  // Count from entry_pc to the next function's entry (functions are laid
  // out contiguously by codegen).
  std::uint32_t end_pc = static_cast<std::uint32_t>(module.code.size());
  for (const auto& fn : module.functions) {
    if (fn.entry_pc > kernel.entry_pc && fn.entry_pc < end_pc) {
      end_pc = fn.entry_pc;
    }
  }
  double flop_count = 0.0;
  double mem_bytes = 0.0;
  double branches = 0.0;
  double total = 0.0;
  for (std::uint32_t pc = kernel.entry_pc; pc < end_pc; ++pc) {
    const oclc::Instruction& instr = module.code[pc];
    total += 1.0;
    switch (instr.op) {
      case oclc::Opcode::kAdd:
      case oclc::Opcode::kSub:
      case oclc::Opcode::kMul:
      case oclc::Opcode::kDiv:
        flop_count += 1.0;
        break;
      case oclc::Opcode::kCallBuiltin:
        flop_count += 4.0;  // Math builtins are multi-flop.
        break;
      case oclc::Opcode::kLoadMem:
      case oclc::Opcode::kStoreMem:
        mem_bytes += ScalarSize(instr.type);
        break;
      case oclc::Opcode::kJumpIfFalse:
      case oclc::Opcode::kJumpIfTrue:
        branches += 1.0;
        break;
      default:
        break;
    }
  }
  // Average loop trip factor: kernels in this domain loop over tiles or
  // neighbor lists; 16 matches the tile sizes the workloads use.
  constexpr double kTripFactor = 16.0;
  mix.flops_per_item = std::max(1.0, flop_count * kTripFactor);
  mix.bytes_per_item = std::max(4.0, mem_bytes * kTripFactor);
  mix.branchiness = total > 0 ? branches / total : 0.0;
  return mix;
}

// Shared implementation: the three drivers differ only in DeviceSpec,
// thread budget, and bitstream policy.
class SimulatedDriver : public DeviceDriver {
 public:
  SimulatedDriver(sim::DeviceSpec spec, int exec_threads,
                  bool require_native_binary)
      : spec_(std::move(spec)),
        exec_threads_(exec_threads),
        require_native_binary_(require_native_binary) {}

  [[nodiscard]] const sim::DeviceSpec& spec() const override { return spec_; }

  Expected<std::shared_ptr<const oclc::Module>> Build(
      const std::string& source, std::string* build_log) override {
    oclc::CompileResult result = oclc::CompileWithLog(source);
    if (build_log != nullptr) *build_log = result.build_log;
    if (result.module == nullptr) {
      return Status(ErrorCode::kBuildProgramFailure, result.build_log);
    }
    return result.module;
  }

  Status Launch(const oclc::Module& module, const std::string& kernel_name,
                const std::vector<oclc::ArgBinding>& args,
                const oclc::NDRange& range, LaunchProfile* profile,
                const sim::KernelCost* cost_hint) override {
    const oclc::CompiledFunction* kernel = module.FindKernel(kernel_name);
    if (kernel == nullptr) {
      return Status(ErrorCode::kInvalidKernelName,
                    "no kernel '" + kernel_name + "' in program");
    }

    // Functional execution: native binary when available (mandatory for
    // the FPGA), interpreter otherwise.
    const NativeKernelFn* native =
        NativeKernelRegistry::Instance().Find(kernel_name);
    bool used_native = false;
    oclc::VmStats vm_stats;
    if (native != nullptr) {
      oclc::NDRange run_range = range;
      oclc::ChooseLocalSize(run_range, kernel);
      HAOCL_RETURN_IF_ERROR((*native)(args, run_range));
      used_native = true;
    } else if (require_native_binary_) {
      return Status(
          ErrorCode::kInvalidProgramExecutable,
          "FPGA node has no pre-built bitstream for kernel '" + kernel_name +
              "'; register a native binary (see driver/native_registry.h)");
    } else {
      oclc::LaunchOptions options;
      options.num_threads = exec_threads_;
      HAOCL_RETURN_IF_ERROR(
          oclc::LaunchKernel(module, *kernel, args, range, options, &vm_stats));
    }

    if (profile != nullptr) {
      const sim::KernelCost cost =
          cost_hint != nullptr ? *cost_hint
                               : EstimateKernelCost(module, *kernel, args,
                                                    range);
      profile->modeled_seconds = sim::ModelKernelTime(spec_, cost);
      profile->modeled_joules = profile->modeled_seconds * spec_.power_watts;
      profile->flops = static_cast<std::uint64_t>(cost.flops);
      profile->used_native_binary = used_native;
      profile->vm_instructions = vm_stats.instructions;
      profile->vm_batch_steps = vm_stats.batch_steps;
      profile->vm_fused_steps = vm_stats.fused_steps;
      profile->vm_simd_steps = vm_stats.simd_steps;
      profile->vm_bailouts = vm_stats.bailouts;
    }
    return Status::Ok();
  }

 private:
  sim::DeviceSpec spec_;
  int exec_threads_;
  bool require_native_binary_;
};

int HostThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 4 : static_cast<int>(hc);
}

// One host thread per simulated compute unit: the VM's work-group pool
// stands in for the device's CU-level parallelism, clamped to the host
// silicon actually present.
int ExecThreadsFor(const sim::DeviceSpec& spec) {
  return sim::ExecPoolWidth(spec, HostThreads());
}

}  // namespace

sim::KernelCost EstimateKernelCost(const oclc::Module& module,
                                   const oclc::CompiledFunction& kernel,
                                   const std::vector<oclc::ArgBinding>& args,
                                   const oclc::NDRange& range) {
  const InstructionMix mix = AnalyzeKernel(module, kernel);
  std::uint64_t items = 1;
  for (std::uint32_t d = 0; d < range.work_dim; ++d) items *= range.global[d];

  sim::KernelCost cost;
  cost.work_items = items;
  cost.flops = mix.flops_per_item * static_cast<double>(items);
  cost.bytes = mix.bytes_per_item * static_cast<double>(items);
  // Also charge at least one pass over the bound buffers (cold traffic).
  double buffer_bytes = 0.0;
  for (const oclc::ArgBinding& arg : args) {
    if (arg.kind == oclc::ArgBinding::Kind::kBuffer) {
      buffer_bytes += static_cast<double>(arg.size);
    }
  }
  cost.bytes = std::max(cost.bytes, buffer_bytes);
  cost.irregular = mix.branchiness > 0.12;
  return cost;
}

NativeKernelRegistry& NativeKernelRegistry::Instance() {
  static auto* instance = new NativeKernelRegistry();
  return *instance;
}

void NativeKernelRegistry::Register(const std::string& kernel_name,
                                    NativeKernelFn fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  kernels_[kernel_name] = std::move(fn);
}

bool NativeKernelRegistry::Contains(const std::string& kernel_name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return kernels_.count(kernel_name) != 0;
}

const NativeKernelFn* NativeKernelRegistry::Find(
    const std::string& kernel_name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = kernels_.find(kernel_name);
  return it == kernels_.end() ? nullptr : &it->second;
}

std::vector<std::string> NativeKernelRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(kernels_.size());
  for (const auto& [name, fn] : kernels_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

void NativeKernelRegistry::Unregister(const std::string& kernel_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  kernels_.erase(kernel_name);
}

std::unique_ptr<DeviceDriver> MakeCpuDriver() {
  sim::DeviceSpec spec = sim::XeonE52686();
  const int threads = ExecThreadsFor(spec);
  return std::make_unique<SimulatedDriver>(std::move(spec), threads,
                                           /*require_native_binary=*/false);
}

std::unique_ptr<DeviceDriver> MakeGpuDriver() {
  sim::DeviceSpec spec = sim::TeslaP4();
  const int threads = ExecThreadsFor(spec);
  return std::make_unique<SimulatedDriver>(std::move(spec), threads,
                                           /*require_native_binary=*/false);
}

std::unique_ptr<DeviceDriver> MakeFpgaDriver() {
  sim::DeviceSpec spec = sim::XilinxVU9P();
  const int threads = ExecThreadsFor(spec);
  return std::make_unique<SimulatedDriver>(std::move(spec), threads,
                                           /*require_native_binary=*/true);
}

std::unique_ptr<DeviceDriver> MakeSimulatedDriver(sim::DeviceSpec spec,
                                                  bool require_native_binary) {
  const int threads = ExecThreadsFor(spec);
  return std::make_unique<SimulatedDriver>(std::move(spec), threads,
                                           require_native_binary);
}

}  // namespace haocl::driver
