// Runtime environment reporting and checked environment-variable parsing:
// thread count, fp16 capability, build flags.  Benches print the summary
// header so results are interpretable later.
#pragma once

#include <string>

namespace nk {

// ---------------------------------------------------------------------------
// Checked env-knob parsers — the Options checked-parse policy applied to
// getenv sites.  A knob that is SET but malformed used to be silently
// truncated ("NKRYLOV_PAR_THRESHOLD=4096x" parsed as 4096) or silently
// treated as truthy; now the whole value must parse, and a malformed value
// warns ONCE on stderr naming the variable and the offending value before
// falling back to the default.  Unset variables return the default without
// any diagnostics.
// ---------------------------------------------------------------------------

/// Integer knob: full-string strict parse (no trailing garbage, no empty
/// value), rejected when below `min_value`.  Malformed/out-of-range values
/// warn once per variable and return `def`.
long env_long(const char* var, long def, long min_value);

/// Boolean knob: "0"/"off"/"false"/"no" are false, "1"/"on"/"true"/"yes"
/// are true (lower case, matching the spellings the knobs documented).
/// Anything else — including an empty value — warns once per variable and
/// returns `def`.
bool env_flag(const char* var, bool def);

/// String knob: the raw value when set (even if empty), `def` otherwise.
/// Deliberately validation-free — knobs whose bad values must FAIL rather
/// than warn-and-default (NKRYLOV_BACKEND: exit(2) in CLI front-ends,
/// kInvalidInput through the library) validate at the use site, where the
/// failure policy lives.
std::string env_str(const char* var, const std::string& def);

/// CLI front door for NKRYLOV_BACKEND: when the variable is set to an
/// unknown backend name, print one line naming the variable, the value,
/// and the known backends, then exit(2) — a daemon or bench must not come
/// up on a silently different backend than the operator asked for.  Unset
/// or valid values return normally.  (Library callers get the same
/// strictness as SolveStatus::kInvalidInput through Session instead.)
void require_backend_env_cli();

/// NKRYLOV_TUNE_PROBES — the autotuner's probe budget: how many shortlist
/// candidates get a capped trial solve before the winner is chosen
/// (core/tune/).  0 = model-only selection (no probes at all).  Checked
/// parse via env_long: malformed or negative values warn once and fall
/// back to the default (4).
long tune_probes_env();

/// NKRYLOV_TUNE_DB — path of the autotuner's persistent perf-DB file
/// (core/tune/perf_db.hpp).  Empty/unset = in-memory only: the tuner never
/// writes a file the operator did not ask for.
std::string tune_db_env();

/// Number of OpenMP threads the kernels will use (1 in serial builds).
int num_threads();

/// One-line description of the runtime (threads, fp16 path, build type).
std::string env_summary();

/// True when the build carries a hardware fp16 conversion path (F16C) —
/// informational only; _Float16 is always functionally available.
bool has_f16c();

}  // namespace nk
