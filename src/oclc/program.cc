#include "oclc/program.h"

#include "oclc/codegen.h"
#include "oclc/parser.h"
#include "oclc/sema.h"
#include "oclc/vm_internal.h"

namespace haocl::oclc {

Expected<std::shared_ptr<const Module>> Compile(const std::string& source) {
  auto unit = Parse(source);
  if (!unit.ok()) return unit.status();
  HAOCL_RETURN_IF_ERROR(Analyze(**unit));
  auto module = Generate(**unit);
  if (!module.ok()) return module.status();
  module->batch_plan = std::make_shared<const vmdetail::BatchPlan>(
      vmdetail::BuildBatchPlan(*module));
  return std::make_shared<const Module>(*std::move(module));
}

CompileResult CompileWithLog(const std::string& source) {
  CompileResult result;
  auto module = Compile(source);
  if (module.ok()) {
    result.module = *std::move(module);
  } else {
    result.build_log = module.status().ToString();
  }
  return result;
}

}  // namespace haocl::oclc
