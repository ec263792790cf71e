#include "core/spec.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <vector>

#include "core/registry.hpp"

namespace nk {

namespace {

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Shortest round-trip decimal rendering of a double ("1e-08", "0.25").
std::string fmt_double(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

int parse_int_opt(const std::string& key, const std::string& value, int lo) {
  int v = 0;
  const auto res = std::from_chars(value.data(), value.data() + value.size(), v);
  if (res.ec != std::errc{} || res.ptr != value.data() + value.size())
    throw SpecError("bad integer '" + value + "' for spec option " + key);
  if (v < lo)
    throw SpecError("out-of-range value '" + value + "' for spec option " + key);
  return v;
}

double parse_double_opt(const std::string& key, const std::string& value) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(value, &pos);
  } catch (const std::exception&) {
    throw SpecError("bad number '" + value + "' for spec option " + key);
  }
  if (pos != value.size())
    throw SpecError("bad number '" + value + "' for spec option " + key);
  return v;
}

Prec parse_prec_token(const std::string& tok) {
  try {
    return parse_prec(tok);
  } catch (const std::invalid_argument&) {
    throw SpecError("bad precision token '" + tok + "' (expected fp64|fp32|fp16)");
  }
}

/// Shared by the ":NAME" head suffix and the ";backend=" option; a backend
/// may be named at most once per spec, whichever spelling is used.
void set_backend_token(const std::string& tok, SolverSpec* s) {
  const auto be = parse_backend(tok);
  if (!be.has_value())
    throw SpecError("unknown backend '" + tok + "' in spec (known: " +
                    std::string(backend_names()) + ")");
  if (s->backend.has_value())
    throw SpecError("backend given twice in spec (':" + tok +
                    "' suffix and/or ';backend=')");
  s->backend = *be;
}

/// Split "name[@prec]"; empty name / empty precision are errors.
struct Token {
  std::string name;
  std::optional<Prec> prec;
};

Token split_token(const std::string& text, const char* what) {
  Token t;
  const auto at = text.find('@');
  t.name = text.substr(0, at);
  if (t.name.empty()) throw SpecError(std::string("empty ") + what + " kind in spec");
  if (at != std::string::npos) {
    const std::string p = text.substr(at + 1);
    if (p.find('@') != std::string::npos)
      throw SpecError("more than one '@' in spec token '" + text + "'");
    t.prec = parse_prec_token(p);
  }
  return t;
}

struct Option {
  std::string key;
  std::string value;  ///< empty for bare flags
  bool has_value = false;
};

/// Split the option tail "k1=v1;k2;..." (already stripped of the head).
std::vector<Option> split_options(const std::string& tail) {
  std::vector<Option> out;
  std::size_t pos = 0;
  while (pos <= tail.size()) {
    const auto sep = tail.find(';', pos);
    const std::string piece =
        tail.substr(pos, sep == std::string::npos ? std::string::npos : sep - pos);
    if (piece.empty()) throw SpecError("empty option in spec (stray ';')");
    Option o;
    const auto eq = piece.find('=');
    if (eq == std::string::npos) {
      o.key = piece;
    } else {
      o.key = piece.substr(0, eq);
      o.value = piece.substr(eq + 1);
      o.has_value = true;
      if (o.key.empty() || o.value.empty())
        throw SpecError("malformed option '" + piece + "' in spec");
    }
    out.push_back(std::move(o));
    if (sep == std::string::npos) break;
    pos = sep + 1;
  }
  return out;
}

std::string require_value(const Option& o) {
  if (!o.has_value) throw SpecError("spec option '" + o.key + "' needs a value");
  return o.value;
}

void require_flag(const Option& o) {
  if (o.has_value) throw SpecError("spec option '" + o.key + "' takes no value");
}

/// Apply one option to (solver, precond); keys are namespaced by name, so a
/// single tail serves both halves of a full spec string.
void apply_option(const Option& o, SolverSpec* s, PrecondSpec* pc) {
  if (s != nullptr) {
    if (o.key == "rtol") {
      s->rtol = parse_double_opt(o.key, require_value(o));
      return;
    }
    if (o.key == "max-iters") {
      s->max_iters = parse_int_opt(o.key, require_value(o), 1);
      return;
    }
    if (o.key == "restarts") {
      s->max_restarts = parse_int_opt(o.key, require_value(o), 0);
      return;
    }
    if (o.key == "wave") {
      s->wave = parse_int_opt(o.key, require_value(o), 0);
      return;
    }
    if (o.key == "nohist") {
      require_flag(o);
      s->record_history = false;
      return;
    }
    if (o.key == "stagnate-window") {
      s->stagnate_window = parse_int_opt(o.key, require_value(o), 0);
      return;
    }
    if (o.key == "backend") {
      set_backend_token(require_value(o), s);
      return;
    }
    if (o.key == "fallback") {
      // Comma-separated precision ladder, e.g. "fallback=fp32,fp64".
      const std::string v = require_value(o);
      s->fallback.clear();
      std::size_t pos = 0;
      while (pos <= v.size()) {
        const auto comma = v.find(',', pos);
        const std::string piece =
            v.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
        if (piece.empty())
          throw SpecError("empty precision in spec option fallback ('" + v + "')");
        s->fallback.push_back(parse_prec_token(piece));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
      return;
    }
  }
  if (o.key == "nblocks") {
    pc->nblocks = parse_int_opt(o.key, require_value(o), 0);
    return;
  }
  if (o.key == "omega") {
    pc->omega = parse_double_opt(o.key, require_value(o));
    return;
  }
  if (o.key == "degree") {
    pc->degree = parse_int_opt(o.key, require_value(o), 0);
    return;
  }
  if (o.key == "inject") {
    pc->inject = require_value(o);
    return;
  }
  if (o.key == "inner") {
    pc->inner = require_value(o);
    return;
  }
  throw SpecError(
      "unknown spec option '" + o.key +
      (s != nullptr
           ? "' (solver: rtol max-iters restarts wave nohist "
             "stagnate-window fallback backend; "
             "preconditioner: nblocks omega degree inject inner)"
           : "' (preconditioner options: nblocks omega degree inject inner)"));
}

void resolve_precond_kind(const Token& tok, PrecondSpec* out) {
  if (registry().precond_info(tok.name) == nullptr) {
    std::ostringstream os;
    os << "unknown preconditioner kind '" << tok.name << "' (registered:";
    for (const auto& k : registry().precond_kinds()) os << " " << k;
    os << ")";
    throw SpecError(os.str());
  }
  out->kind = tok.name;
  out->storage = tok.prec;
}

/// Resolve a solver token name: exact registered kind, else trailing
/// digits as m, else an "fpNN-" legacy prefix as the precision axis.
void resolve_solver_kind(const Token& tok, SolverSpec* out) {
  const Registry& reg = registry();
  std::string name = tok.name;
  std::optional<Prec> prec = tok.prec;
  int m = 0;

  if (reg.solver_info(name) == nullptr) {
    // "fp16-f3r" → prec fp16, rest "f3r" (only when the full name is not
    // itself a registered kind — "fp16-f2" IS one).
    if (name.size() > 5 && name[0] == 'f' && name[1] == 'p' && name[4] == '-') {
      const std::string prefix = name.substr(0, 4);
      if (prefix == "fp64" || prefix == "fp32" || prefix == "fp16") {
        if (prec.has_value())
          throw SpecError("precision given twice in solver token '" + tok.name + "'");
        prec = parse_prec_token(prefix);
        name = name.substr(5);
      }
    }
  }
  if (reg.solver_info(name) == nullptr) {
    // "fgmres64" → kind "fgmres", m 64.
    std::size_t d = name.size();
    while (d > 0 && std::isdigit(static_cast<unsigned char>(name[d - 1]))) --d;
    if (d > 0 && d < name.size() && reg.solver_info(name.substr(0, d)) != nullptr) {
      m = parse_int_opt("m", name.substr(d), 1);
      name = name.substr(0, d);
    }
  }
  const SolverKindInfo* info = reg.solver_info(name);
  if (info == nullptr) {
    std::ostringstream os;
    os << "unknown solver kind '" << tok.name << "' (registered:";
    for (const auto& k : reg.solver_kinds()) os << " " << k;
    os << ")";
    throw SpecError(os.str());
  }
  if (m != 0 && !info->takes_m)
    throw SpecError("solver kind '" + name + "' does not take an iteration count ('" +
                    tok.name + "')");
  if (prec.has_value() && !info->takes_prec)
    throw SpecError("solver kind '" + name + "' has fixed precisions (no @prec)");
  out->kind = name;
  out->m = m;
  out->prec = prec.value_or(Prec::FP64);
}

}  // namespace

PrecondSpec PrecondSpec::parse(const std::string& text) {
  const std::string s = lower(text);
  PrecondSpec out;
  const auto semi = s.find(';');
  const std::string head = s.substr(0, semi);
  if (head.find('/') != std::string::npos)
    throw SpecError("'/' is not valid in a preconditioner spec: '" + text + "'");
  resolve_precond_kind(split_token(head, "preconditioner"), &out);
  if (semi != std::string::npos)
    for (const Option& o : split_options(s.substr(semi + 1)))
      apply_option(o, nullptr, &out);
  return out;
}

std::string PrecondSpec::to_string() const {
  std::string s = kind;
  if (storage.has_value()) s += std::string("@") + prec_name(*storage);
  const PrecondSpec def;
  if (nblocks != def.nblocks) s += ";nblocks=" + std::to_string(nblocks);
  if (omega != def.omega) s += ";omega=" + fmt_double(omega);
  if (degree != def.degree) s += ";degree=" + std::to_string(degree);
  if (!inject.empty()) s += ";inject=" + inject;
  if (!inner.empty()) s += ";inner=" + inner;
  return s;
}

SolverSpec SolverSpec::parse(const std::string& text) {
  const std::string s = lower(text);
  SolverSpec out;
  const auto semi = s.find(';');
  std::string head = s.substr(0, semi);

  // ":NAME" backend suffix on the head ("cg/jacobi@fp64:serial") — the
  // short spelling of ";backend=NAME"; giving both is rejected below.
  const auto colon = head.find(':');
  if (colon != std::string::npos) {
    const std::string be_tok = head.substr(colon + 1);
    if (be_tok.empty()) throw SpecError("empty backend after ':' in spec '" + text + "'");
    if (be_tok.find(':') != std::string::npos)
      throw SpecError("more than one ':' in spec '" + text + "'");
    set_backend_token(be_tok, &out);
    head.resize(colon);
  }

  const auto slash = head.find('/');
  const std::string solver_part = head.substr(0, slash);
  resolve_solver_kind(split_token(solver_part, "solver"), &out);
  if (slash != std::string::npos) {
    const std::string precond_part = head.substr(slash + 1);
    if (precond_part.find('/') != std::string::npos)
      throw SpecError("more than one '/' in spec '" + text + "'");
    resolve_precond_kind(split_token(precond_part, "preconditioner"), &out.precond);
  }
  if (semi != std::string::npos)
    for (const Option& o : split_options(s.substr(semi + 1)))
      apply_option(o, &out, &out.precond);
  return out;
}

std::string SolverSpec::to_string() const {
  std::string s = kind;
  if (m != 0) s += std::to_string(m);
  if (prec != Prec::FP64) s += std::string("@") + prec_name(prec);

  const PrecondSpec pdef;
  if (precond.kind != pdef.kind || precond.storage.has_value()) {
    s += "/" + precond.kind;
    if (precond.storage.has_value()) s += std::string("@") + prec_name(*precond.storage);
  }

  const SolverSpec def;
  if (rtol != def.rtol) s += ";rtol=" + fmt_double(rtol);
  if (max_iters != def.max_iters) s += ";max-iters=" + std::to_string(max_iters);
  if (max_restarts != def.max_restarts) s += ";restarts=" + std::to_string(max_restarts);
  if (!record_history) s += ";nohist";
  if (wave != def.wave) s += ";wave=" + std::to_string(wave);
  if (stagnate_window != def.stagnate_window)
    s += ";stagnate-window=" + std::to_string(stagnate_window);
  if (!fallback.empty()) {
    s += ";fallback=";
    for (std::size_t i = 0; i < fallback.size(); ++i)
      s += std::string(i > 0 ? "," : "") + prec_name(fallback[i]);
  }
  // Canonical form is the option spelling; an unset backend emits nothing,
  // so pre-backend spec strings round-trip byte-identically.
  if (backend.has_value()) s += std::string(";backend=") + backend_name(*backend);
  if (precond.nblocks != pdef.nblocks) s += ";nblocks=" + std::to_string(precond.nblocks);
  if (precond.omega != pdef.omega) s += ";omega=" + fmt_double(precond.omega);
  if (precond.degree != pdef.degree) s += ";degree=" + std::to_string(precond.degree);
  if (!precond.inject.empty()) s += ";inject=" + precond.inject;
  if (!precond.inner.empty()) s += ";inner=" + precond.inner;
  return s;
}

SolverSpec parse_solver_spec(const std::string& text) { return SolverSpec::parse(text); }

PrecondSpec parse_precond_spec(const std::string& text) { return PrecondSpec::parse(text); }

namespace {

// The CLI front doors share the Options parser's error discipline:
// one line naming the flag and the offending value, then exit(2).
[[noreturn]] void die_bad_spec(const std::string& flag, const std::string& text,
                               const char* what) {
  std::cerr << "error: invalid spec '" << text << "' for --" << flag << ": " << what
            << "\n";
  std::exit(2);
}

}  // namespace

SolverSpec parse_solver_spec_cli(const std::string& flag, const std::string& text) {
  try {
    return SolverSpec::parse(text);
  } catch (const SpecError& e) {
    die_bad_spec(flag, text, e.what());
  }
}

PrecondSpec parse_precond_spec_cli(const std::string& flag, const std::string& text) {
  try {
    return PrecondSpec::parse(text);
  } catch (const SpecError& e) {
    die_bad_spec(flag, text, e.what());
  }
}

}  // namespace nk
