// locklint — the repo's determinism & concurrency-discipline linter.
//
// The repository's core promise is that fig6/fig9 runs, --metrics-out
// exports, and tuner decisions are byte-identical across refactors. That
// promise dies quietly: one wall-clock read, one iteration over an
// unordered container in a decision path, one float in lock accounting, and
// the golden suite fails somewhere far from the cause. locklint checks the
// house rules mechanically, at token/regex level — deliberately not a
// compiler plugin, so it runs anywhere the repo builds and over code that
// does not compile yet.
//
// Since v2 it is a two-phase analyzer: phase one scans every file for
// ranked-lock declarations (`Mutex mu_{kLockRank..., "Class::mu_"}`),
// LT_REQUIRES capability annotations, and per-function guard-construction
// sites; phase two assembles a whole-repo lock-order graph (emit it with
// --lock-graph out.dot) and checks every edge against the documented
// hierarchy in src/common/lock_rank_table.h.
//
// Rules (see docs/STATIC_ANALYSIS.md for the catalog and rationale):
//   LL001 wallclock     nondeterminism sources: system_clock, time(),
//                       rand()/srand(), std::random_device, clock(), ...
//   LL002 ordered       iteration over unordered_map/unordered_set —
//                       observable order is a determinism hazard; requires
//                       a `// locklint: ordered-ok(<reason>)` annotation
//   LL003 float         float/double in lock/memory accounting files
//   LL004 alloc         raw new/delete in the lock hot path
//   LL005 nodiscard     Status/Result-returning declaration without
//                       [[nodiscard]]
//   LL006 assert        raw assert() — use LOCKTUNE_CHECK/LOCKTUNE_DCHECK
//   LL007 addr          address-ordered behavior: pointer→integer casts,
//                       pointer-keyed ordered containers
//   LL008 faultgate     fault-injection hook in a lock/memory hot path
//                       without an Armed() fast-path guard nearby
//   LL009 profile       wall-clock timing call (steady_clock,
//                       high_resolution_clock, rdtsc) in src/lock/ — raw
//                       clock reads belong in telemetry/lock_profiler.h,
//                       which samples them
//   LL011 lockorder     lock-order violation: an acquisition edge in the
//                       whole-repo lock graph whose ranks do not strictly
//                       increase (src/common/lock_rank_table.h), or a
//                       cycle in the graph — a static deadlock.
//   LL013 hotcolumn     non-trivially-copyable member in a struct marked
//                       `// locklint: hot-column`. Hot-column structs are
//                       the SoA rows the per-tick sweep copies and re-files
//                       wholesale (wheel entries, batch items, lock
//                       requests); an owning or virtual member would turn
//                       every swap/compact into a correctness hazard. The
//                       marker goes on the line above (or the line of) the
//                       struct declaration; pair it with a
//                       static_assert(std::is_trivially_copyable_v<T>) for
//                       the compile-time word.
//   LL000 annotation    malformed suppression (empty reason), or a stale
//                       suppression that matches no finding
//
// Suppressions: `// locklint: <tag>-ok(<reason>)` on the violating line or
// the line directly above. The reason is mandatory; an empty one is itself
// a violation, and so is a suppression that no longer suppresses anything
// (stale). Tags: wallclock-ok, ordered-ok, float-ok, alloc-ok,
// nodiscard-ok, assert-ok, addr-ok, faultgate-ok, profile-ok,
// lockorder-ok, hotcolumn-ok.
//
// Structural annotation (not a suppression):
//   `// locklint: lock-edge(A -> B)`       records a lock-order edge the
//                                          scanner cannot see (callbacks,
//                                          function pointers)
//
// Usage: locklint [--list-rules] [--json] [--lock-graph <out.dot>]
//                 <file-or-dir>...
// Exit: 0 clean, 1 violations found, 2 usage/IO error.
//
// Comments and string/char literals are stripped before rule matching, so
// banned tokens in documentation (or in this file's own pattern strings) do
// not trip the checker; annotation comments are read from the raw line.
// Output is sorted by (file, line, rule) and therefore deterministic
// regardless of filesystem iteration order.
#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

// The documented hierarchy, shared verbatim with the runtime rank checker
// (src/common/lock_rank.cc). Header-only and standard-library-only, so the
// linter stays standalone.
#include "../../src/common/lock_rank_table.h"

namespace {

namespace fs = std::filesystem;

struct Violation {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Violation& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    return rule < o.rule;
  }
};

struct RuleInfo {
  const char* id;
  const char* tag;  // suppression tag, without the "-ok" suffix
  const char* summary;
};

constexpr RuleInfo kRules[] = {
    {"LL000", "annotation",
     "malformed locklint suppression (empty reason) or stale suppression "
     "matching no finding"},
    {"LL001", "wallclock",
     "wall-clock / libc randomness source (system_clock, time(), rand(), "
     "std::random_device, clock(), gettimeofday)"},
    {"LL002", "ordered",
     "iteration over unordered_map/unordered_set (observable-order hazard); "
     "annotate ordered-ok(<reason>) when the order is proven harmless or "
     "deliberately golden-locked"},
    {"LL003", "float",
     "float/double in a lock/memory accounting file (use integral Bytes)"},
    {"LL004", "alloc", "raw new/delete in the lock hot path (use the pool)"},
    {"LL005", "nodiscard",
     "Status/Result-returning declaration without [[nodiscard]]"},
    {"LL006", "assert",
     "raw assert() (use LOCKTUNE_CHECK / LOCKTUNE_DCHECK from "
     "common/check.h)"},
    {"LL007", "addr",
     "address-ordered behavior: pointer-to-integer cast or pointer-keyed "
     "ordered container"},
    {"LL008", "faultgate",
     "fault-injection hook in a lock/memory hot path without an Armed() "
     "fast-path guard on the same line or the three lines above"},
    {"LL009", "profile",
     "wall-clock timing call (steady_clock, high_resolution_clock, rdtsc) "
     "in src/lock/; keep raw clock reads in telemetry/lock_profiler.h or "
     "annotate profile-ok(<reason>)"},
    {"LL011", "lockorder",
     "lock-order violation: acquisition edge whose ranks do not strictly "
     "increase against src/common/lock_rank_table.h, or a cycle in the "
     "whole-repo lock-order graph (static deadlock)"},
    {"LL013", "hotcolumn",
     "non-trivially-copyable member in a 'locklint: hot-column' struct — "
     "SoA hot rows are copied/compacted wholesale by the schedulers; keep "
     "them POD (and static_assert is_trivially_copyable)"},
};

// Basenames of files where integral accounting is mandatory (LL003).
const std::set<std::string> kAccountingFiles = {
    "block_list.h",  "block_list.cc",  "lock_block.h",  "lock_block.cc",
    "memory_heap.h", "lock_table.h",   "lock_table.cc", "resource_map.h",
    "lock_head.h",   "lock_head.cc",   "units.h",
};

// Spellings a declaration's rank argument may use; resolved against the
// shared table so the linter and the runtime checker cannot drift.
const std::map<std::string, int> kRankConstants = {
    {"kLockRankUnranked", locktune::kLockRankUnranked},
    {"kLockRankMetricsRegistry", locktune::kLockRankMetricsRegistry},
    {"kLockRankManager", locktune::kLockRankManager},
    {"kLockRankLeaf", locktune::kLockRankLeaf},
};

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
}

// Strips // and /* */ comments plus string/char literal contents from one
// line, replacing them with spaces so column structure survives.
// `in_block_comment` carries /* state across lines.
std::string StripLine(const std::string& raw, bool* in_block_comment) {
  std::string out;
  out.reserve(raw.size());
  size_t i = 0;
  while (i < raw.size()) {
    if (*in_block_comment) {
      if (raw[i] == '*' && i + 1 < raw.size() && raw[i + 1] == '/') {
        *in_block_comment = false;
        out += "  ";
        i += 2;
      } else {
        out += ' ';
        ++i;
      }
      continue;
    }
    const char c = raw[i];
    if (c == '/' && i + 1 < raw.size() && raw[i + 1] == '/') {
      // Line comment: blank the rest.
      out.append(raw.size() - i, ' ');
      break;
    }
    if (c == '/' && i + 1 < raw.size() && raw[i + 1] == '*') {
      *in_block_comment = true;
      out += "  ";
      i += 2;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      out += ' ';
      ++i;
      while (i < raw.size()) {
        if (raw[i] == '\\' && i + 1 < raw.size()) {
          out += "  ";
          i += 2;
          continue;
        }
        if (raw[i] == quote) {
          out += ' ';
          ++i;
          break;
        }
        out += ' ';
        ++i;
      }
      continue;
    }
    out += c;
    ++i;
  }
  return out;
}

struct FileText {
  std::vector<std::string> raw;
  std::vector<std::string> code;  // comment/string-stripped view
};

bool LoadFile(const fs::path& path, FileText* out) {
  std::ifstream in(path);
  if (!in) return false;
  bool in_block = false;
  std::string line;
  while (std::getline(in, line)) {
    out->raw.push_back(line);
    out->code.push_back(StripLine(line, &in_block));
  }
  return true;
}

// Collects identifiers declared with an unordered container type, e.g.
//   std::unordered_map<AppId, AppState> apps_ LT_GUARDED_BY(mu_);
// Used file-locally plus from the sibling header, so members declared in
// foo.h are known while scanning foo.cc.
void CollectUnorderedIdentifiers(const FileText& text,
                                 std::set<std::string>* names) {
  static const std::regex kDecl(
      R"(unordered_(?:map|set)\s*<[^;{}]*>\s+([A-Za-z_]\w*)\s*(?:LT_\w+\s*\([^()]*\)\s*)?(?:;|=|\{|$))");
  for (const std::string& line : text.code) {
    for (std::sregex_iterator it(line.begin(), line.end(), kDecl), end;
         it != end; ++it) {
      names->insert((*it)[1].str());
    }
  }
}

bool IsCommentOnlyLine(const std::string& raw) {
  size_t i = raw.find_first_not_of(" \t");
  return i != std::string::npos && raw.compare(i, 2, "//") == 0;
}

// Every suppression annotation that gated a finding (file → annotation
// line, 0-based). The stale-suppression pass reports the complement.
using SuppressionUses = std::set<std::pair<std::string, size_t>>;

// True when the violating line, or the contiguous comment block directly
// above it, carries a non-empty suppression for `tag`. The reason may wrap
// onto following comment lines, so the closing paren is optional on the tag
// line. Sets *bad_annotation when the tag is present with an empty reason.
// Either way the matched annotation is recorded as used.
bool IsSuppressed(const std::string& file, const std::vector<std::string>& raw,
                  size_t idx, const std::string& pattern_head,
                  const std::string& tag, bool* bad_annotation,
                  SuppressionUses* used) {
  const std::regex ann(pattern_head + "\\s*" + tag + "-ok\\(([^)]*)");
  const auto check = [&](const std::string& line, size_t line_idx) {
    std::smatch m;
    if (!std::regex_search(line, m, ann)) return false;
    std::string reason = m[1].str();
    // A `<reason>` placeholder is documentation quoting the syntax (rule
    // catalogs, this file's own header), not a live suppression.
    const size_t first = reason.find_first_not_of(" \t");
    if (first != std::string::npos && reason[first] == '<') return false;
    used->insert({file, line_idx});
    reason.erase(std::remove_if(
                     reason.begin(), reason.end(),
                     [](unsigned char c) { return std::isspace(c) != 0; }),
                 reason.end());
    if (reason.empty()) *bad_annotation = true;
    return true;
  };
  if (check(raw[idx], idx)) return !*bad_annotation;
  for (size_t j = idx; j > 0 && IsCommentOnlyLine(raw[j - 1]); --j) {
    if (check(raw[j - 1], j - 1)) return !*bad_annotation;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Phase-one/-two concurrency model (LL011, --lock-graph).
// ---------------------------------------------------------------------------

// Tracks the enclosing class/struct across a file so member declarations
// and inline methods can be attributed (`mu_` in class HistogramMetric →
// HistogramMetric::mu_). Purely brace-depth based.
class ScopeTracker {
 public:
  // Call once per code line, BEFORE consuming the line's context.
  void BeginLine(const std::string& code) {
    static const std::regex kClassOpen(
        R"(\b(class|struct)\s+(?:LT_\w+(?:\([^)]*\))?\s+)?([A-Za-z_]\w*))");
    std::smatch m;
    if (code.find("enum") == std::string::npos &&
        std::regex_search(code, m, kClassOpen) &&
        code.find('{') != std::string::npos &&
        code.find(';') == std::string::npos) {
      classes_.push_back({m[2].str(), depth_});
      opened_class_this_line_ = true;
    } else {
      opened_class_this_line_ = false;
    }
  }

  // Call once per code line, AFTER consuming the line's context.
  void EndLine(const std::string& code) {
    for (const char c : code) {
      if (c == '{') ++depth_;
      if (c == '}' && depth_ > 0) --depth_;
    }
    while (!classes_.empty() && depth_ <= classes_.back().open_depth &&
           !(opened_class_this_line_ &&
             classes_.back().open_depth == depth_)) {
      classes_.pop_back();
    }
    opened_class_this_line_ = false;
  }

  int depth() const { return depth_; }
  bool opened_class_this_line() const { return opened_class_this_line_; }
  std::string current_class() const {
    return classes_.empty() ? std::string() : classes_.back().name;
  }

 private:
  struct ClassScope {
    std::string name;
    int open_depth;  // depth before the opening brace
  };
  int depth_ = 0;
  bool opened_class_this_line_ = false;
  std::vector<ClassScope> classes_;
};

std::string FileStem(const std::string& generic) {
  return fs::path(generic).stem().string();
}

// The whole-repo lock model: declarations, per-function acquire sets, and
// the lock-order graph.
class LockModel {
 public:
  struct Edge {
    std::string from;
    std::string to;
    std::string file;  // first acquisition site observed
    int line = 0;
    size_t idx = 0;  // 0-based line of the site, for suppression lookup
  };

  // --- phase one -----------------------------------------------------------

  void ScanDeclarations(const std::string& file, const FileText& text) {
    // Canonical names live in string literals, so declarations are matched
    // on the raw line; class context comes from the stripped view.
    static const std::regex kLockDecl(
        "\\bMutex\\s+(\\w+)\\s*\\{\\s*(kLockRank\\w+)\\s*,"
        "\\s*\"([^\"]+)\"");
    static const std::regex kRequires(
        R"(([A-Za-z_]\w*)\s*\([^;{}]*\)[^;{}]*LT_REQUIRES\s*\(\s*([A-Za-z_]\w*)\s*\))");
    ScopeTracker scope;
    std::string stmt;  // accumulated declaration text (stripped view)
    for (size_t i = 0; i < text.code.size(); ++i) {
      const std::string& code = text.code[i];
      scope.BeginLine(code);
      std::smatch m;
      if (std::regex_search(text.raw[i], m, kLockDecl)) {
        LockDecl d;
        d.member = m[1].str();
        d.canonical = m[3].str();
        d.klass = scope.current_class();
        d.file_stem = FileStem(file);
        const auto rank_it = kRankConstants.find(m[2].str());
        d.rank = rank_it != kRankConstants.end()
                     ? rank_it->second
                     : locktune::LockRankForName(d.canonical.c_str());
        decls_by_member_[d.member].push_back(d);
      }
      stmt += code;
      stmt += ' ';
      if (code.find(';') != std::string::npos ||
          code.find('{') != std::string::npos ||
          code.find('}') != std::string::npos) {
        std::smatch r;
        std::string tail = stmt;
        while (std::regex_search(tail, r, kRequires)) {
          RequiresDecl rd;
          rd.arg = r[2].str();
          rd.klass = scope.current_class();
          rd.file_stem = FileStem(file);
          const std::string key = rd.klass + "::" + r[1].str();
          requires_by_method_[key].push_back(rd);
          tail = r.suffix().str();
        }
        stmt.clear();
      }
      scope.EndLine(code);
    }
  }

  // --- phase two -----------------------------------------------------------

  // Scans function bodies: guard-construction sites become held-set state
  // and graph edges; call sites are recorded for interprocedural
  // propagation. Also parses lock-edge structural annotations.
  void ScanFunctions(const std::string& file, const FileText& text);

  // Interprocedural fixpoint, then LL011 edge/cycle checks.
  void Analyze(const std::map<std::string, FileText>& texts,
               std::vector<Violation>* out, SuppressionUses* used);

  // Deterministic DOT rendering of the lock-order graph.
  std::string DotGraph() const;

 private:
  struct LockDecl {
    std::string member;
    std::string canonical;
    std::string klass;
    std::string file_stem;
    int rank = locktune::kLockRankUnranked;
  };
  struct RequiresDecl {
    std::string arg;
    std::string klass;
    std::string file_stem;
  };
  struct Function {
    std::string qualified;  // Class::Method or free name
    std::string klass;
    std::string file_stem;
    std::set<std::string> acquires;  // canonical locks, transitively grown
  };
  struct CallSite {
    size_t caller = 0;  // index into functions_
    std::string callee;
    std::vector<std::string> held;
    std::string file;
    int line = 0;
    size_t idx = 0;
  };

  // Canonicalizes a guard's lock expression within (file stem, class).
  std::string Canonicalize(const std::string& expr,
                           const std::string& file_stem,
                           const std::string& klass) const {
    static const std::regex kTrailing(R"(([A-Za-z_]\w*)\s*$)");
    std::smatch m;
    if (!std::regex_search(expr, m, kTrailing)) {
      return file_stem + "::<expr>";
    }
    const std::string member = m[1].str();
    const auto it = decls_by_member_.find(member);
    if (it == decls_by_member_.end()) return file_stem + "::" + member;
    std::vector<const LockDecl*> cands;
    for (const LockDecl& d : it->second) cands.push_back(&d);
    if (cands.size() > 1) {
      std::vector<const LockDecl*> same_file;
      for (const LockDecl* d : cands) {
        if (d->file_stem == file_stem) same_file.push_back(d);
      }
      if (!same_file.empty()) cands = same_file;
    }
    if (cands.size() > 1 && !klass.empty()) {
      std::vector<const LockDecl*> same_class;
      for (const LockDecl* d : cands) {
        if (d->klass == klass) same_class.push_back(d);
      }
      if (!same_class.empty()) cands = same_class;
    }
    if (cands.size() == 1) return cands.front()->canonical;
    return file_stem + "::" + member;
  }

  std::set<std::string> ResolveRequires(const std::string& qualified,
                                        const std::string& klass) const {
    std::set<std::string> held;
    const auto pos = qualified.rfind("::");
    const std::string k =
        pos == std::string::npos ? klass : qualified.substr(0, pos);
    const std::string method =
        pos == std::string::npos ? qualified : qualified.substr(pos + 2);
    const auto it = requires_by_method_.find(k + "::" + method);
    if (it == requires_by_method_.end()) return held;
    for (const RequiresDecl& rd : it->second) {
      held.insert(Canonicalize(rd.arg, rd.file_stem, rd.klass));
    }
    return held;
  }

  int RankOf(const std::string& canonical) const {
    const int table = locktune::LockRankForName(canonical.c_str());
    if (table != locktune::kLockRankUnranked) return table;
    const auto it = declared_ranks_.find(canonical);
    return it != declared_ranks_.end() ? it->second
                                       : locktune::kLockRankUnranked;
  }

  void AddEdge(const std::string& from, const std::string& to,
               const std::string& file, int line, size_t idx) {
    if (from == to && RankOf(from) == locktune::kLockRankUnranked) {
      // Two guards on same-named unranked locks are usually two distinct
      // instances (bench/test locals); only table-ranked locks carry the
      // "never nest with yourself" contract.
      return;
    }
    edges_.emplace(std::make_pair(from, to), Edge{from, to, file, line, idx});
  }

  std::map<std::string, std::vector<LockDecl>> decls_by_member_;
  std::map<std::string, std::vector<RequiresDecl>> requires_by_method_;
  std::map<std::string, int> declared_ranks_;  // canonical → declared rank
  std::vector<Function> functions_;
  std::map<std::string, std::vector<size_t>> functions_by_base_;
  std::vector<CallSite> calls_;
  std::map<std::pair<std::string, std::string>, Edge> edges_;
};

void LockModel::ScanFunctions(const std::string& file, const FileText& text) {
  static const std::regex kGuardDecl(
      R"(\b(MutexLock|ProfiledMutexGuard)\s+\w+\s*[({]\s*([^,;)]*))");
  static const std::regex kSignature(
      R"(((?:[A-Za-z_]\w*::)+~?[A-Za-z_]\w*|[A-Za-z_]\w*)\s*\()");
  static const std::regex kCall(R"(\b([A-Za-z_]\w*)\s*\()");
  // Both endpoints must be qualified canonical names (Class::member) —
  // this also keeps syntax examples in documentation comments inert.
  static const std::regex kLockEdge(
      R"(locklint:\s*lock-edge\(\s*(\w+(?:::\w+)+)\s*->\s*(\w+(?:::\w+)+)\s*\))");
  static const std::set<std::string> kCallKeywords = {
      "if",     "for",    "while",   "switch",   "return", "sizeof",
      "catch",  "assert", "decltype", "alignof", "static_assert",
      "defined"};

  // Record declared ranks so fixture-local locks (outside the shared
  // table) still rank-check.
  for (const auto& [member, decls] : decls_by_member_) {
    for (const LockDecl& d : decls) declared_ranks_[d.canonical] = d.rank;
  }

  ScopeTracker scope;
  std::string stmt;  // pending statement text (stripped)
  struct ActiveFn {
    size_t index = 0;
    int base_depth = 0;  // depth before the body's opening brace
    std::set<std::string> requires_held;
  };
  std::vector<ActiveFn> fn_stack;  // lambdas keep the outer entry active
  struct HeldGuard {
    std::string canonical;
    int depth;
  };
  std::vector<HeldGuard> guards;

  for (size_t i = 0; i < text.code.size(); ++i) {
    const std::string& code = text.code[i];
    const int line_no = static_cast<int>(i) + 1;
    scope.BeginLine(code);

    // Structural lock-edge annotations apply anywhere.
    std::smatch em;
    std::string rawl = text.raw[i];
    if (std::regex_search(rawl, em, kLockEdge)) {
      AddEdge(em[1].str(), em[2].str(), file, line_no, i);
    }

    const bool in_function = !fn_stack.empty();
    if (!in_function && !scope.opened_class_this_line()) {
      stmt += code;
      stmt += ' ';
      static const std::regex kAccessSpec(
          R"(^\s*(public|private|protected)\s*:\s*$)");
      if (std::regex_match(code, kAccessSpec)) {
        stmt.clear();
        scope.EndLine(code);
        continue;
      }
      const bool opens = code.find('{') != std::string::npos;
      if (opens) {
        std::smatch m;
        if (std::regex_search(stmt, m, kSignature) &&
            stmt.find("namespace") == std::string::npos) {
          Function fn;
          fn.qualified = m[1].str();
          const auto pos = fn.qualified.rfind("::");
          fn.klass = pos == std::string::npos ? scope.current_class()
                                              : fn.qualified.substr(0, pos);
          if (pos == std::string::npos && !fn.klass.empty()) {
            fn.qualified = fn.klass + "::" + fn.qualified;
          }
          fn.file_stem = FileStem(file);
          ActiveFn af;
          af.index = functions_.size();
          af.base_depth = scope.depth();
          af.requires_held =
              ResolveRequires(fn.qualified, fn.klass);
          const std::string fn_base =
              fn.qualified.substr(fn.qualified.rfind("::") == std::string::npos
                                      ? 0
                                      : fn.qualified.rfind("::") + 2);
          functions_by_base_[fn_base].push_back(af.index);
          functions_.push_back(std::move(fn));
          fn_stack.push_back(std::move(af));
        }
        stmt.clear();
      } else if (code.find(';') != std::string::npos ||
                 code.find('}') != std::string::npos) {
        stmt.clear();
      }
    } else if (in_function) {
      ActiveFn& af = fn_stack.back();
      Function& fn = functions_[af.index];

      // Guard-construction sites: held-set edges + acquire sets.
      for (std::sregex_iterator it(code.begin(), code.end(), kGuardDecl),
           end;
           it != end; ++it) {
        const std::string canonical =
            Canonicalize((*it)[2].str(), fn.file_stem, fn.klass);
        std::set<std::string> held = af.requires_held;
        for (const HeldGuard& g : guards) held.insert(g.canonical);
        for (const std::string& h : held) {
          if (h != canonical || RankOf(h) != locktune::kLockRankUnranked) {
            AddEdge(h, canonical, file, line_no, i);
          }
        }
        guards.push_back({canonical, scope.depth()});
        fn.acquires.insert(canonical);
      }

      // Call sites for interprocedural propagation.
      for (std::sregex_iterator it(code.begin(), code.end(), kCall), end;
           it != end; ++it) {
        const std::string name = (*it)[1].str();
        if (kCallKeywords.count(name) != 0) continue;
        // Only CamelCase callees resolve: the repo is Google-style, so
        // every lock-taking function is capitalized, while lowercase names
        // (size, empty, begin) are STL container methods that would
        // otherwise collide with same-named accessors on repo classes.
        if (std::isupper(static_cast<unsigned char>(name[0])) == 0) continue;
        if (name.size() >= 2 &&
            std::all_of(name.begin(), name.end(), [](unsigned char c) {
              return std::isupper(c) != 0 || std::isdigit(c) != 0 ||
                     c == '_';
            })) {
          continue;  // macro
        }
        const auto pos = static_cast<size_t>(it->position(1));
        if (pos > 0 && code[pos - 1] == ':') continue;  // qualified (std::)
        CallSite cs;
        cs.caller = af.index;
        cs.callee = name;
        cs.held = std::vector<std::string>(af.requires_held.begin(),
                                           af.requires_held.end());
        for (const HeldGuard& g : guards) cs.held.push_back(g.canonical);
        cs.file = file;
        cs.line = line_no;
        cs.idx = i;
        calls_.push_back(std::move(cs));
      }
    }

    scope.EndLine(code);
    const int depth = scope.depth();
    while (!guards.empty() && guards.back().depth > depth) guards.pop_back();
    while (!fn_stack.empty() && depth <= fn_stack.back().base_depth) {
      fn_stack.pop_back();
      if (fn_stack.empty()) guards.clear();
      stmt.clear();
    }
  }
}

void LockModel::Analyze(const std::map<std::string, FileText>& texts,
                        std::vector<Violation>* out, SuppressionUses* used) {
  // Resolve a call to a unique acquire set: all candidate definitions with
  // a nonempty set must agree, otherwise the call is skipped
  // (conservative — wrong edges are worse than missing ones, and callback
  // edges have the explicit lock-edge annotation).
  const auto resolve = [&](const CallSite& cs) -> const std::set<std::string>* {
    const auto it = functions_by_base_.find(cs.callee);
    if (it == functions_by_base_.end()) return nullptr;
    const std::set<std::string>* result = nullptr;
    for (const size_t idx : it->second) {
      if (idx == cs.caller) continue;
      const Function& fn = functions_[idx];
      if (fn.acquires.empty()) continue;
      if (result == nullptr) {
        result = &fn.acquires;
      } else if (*result != fn.acquires) {
        return nullptr;  // ambiguous
      }
    }
    return result;
  };

  // Fixpoint: grow each caller's transitive acquire set through resolved
  // calls, so A → F → G chains contribute A-held → G-acquired edges.
  for (int round = 0; round < 10; ++round) {
    bool changed = false;
    for (const CallSite& cs : calls_) {
      const std::set<std::string>* acq = resolve(cs);
      if (acq == nullptr) continue;
      Function& caller = functions_[cs.caller];
      for (const std::string& lock : *acq) {
        if (caller.acquires.insert(lock).second) changed = true;
      }
    }
    if (!changed) break;
  }
  for (const CallSite& cs : calls_) {
    if (cs.held.empty()) continue;
    const std::set<std::string>* acq = resolve(cs);
    if (acq == nullptr) continue;
    for (const std::string& lock : *acq) {
      for (const std::string& h : cs.held) {
        if (h == lock) continue;
        AddEdge(h, lock, cs.file, cs.line, cs.idx);
      }
    }
  }

  // Rank check: every edge must strictly increase.
  for (const auto& [key, edge] : edges_) {
    const int from_rank = RankOf(edge.from);
    const int to_rank = RankOf(edge.to);
    if (from_rank == locktune::kLockRankUnranked ||
        to_rank == locktune::kLockRankUnranked || from_rank < to_rank) {
      continue;
    }
    const auto it = texts.find(edge.file);
    bool bad = false;
    if (it != texts.end() &&
        IsSuppressed(edge.file, it->second.raw, edge.idx, "locklint:",
                     "lockorder", &bad, used)) {
      continue;
    }
    if (bad) {
      out->push_back({edge.file, edge.line, "LL000",
                      "lockorder-ok() suppression requires a non-empty "
                      "reason"});
      continue;
    }
    std::ostringstream msg;
    msg << "lock-order hierarchy violation: acquiring " << edge.to
        << " (rank " << to_rank << ") while holding " << edge.from
        << " (rank " << from_rank
        << ") — ranks must strictly increase (src/common/lock_rank_table.h)";
    out->push_back({edge.file, edge.line, "LL011", msg.str()});
  }

  // Cycle check: any strongly-connected component with an internal edge is
  // a static deadlock. Reported once per component, at its smallest site.
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [key, edge] : edges_) adj[edge.from].push_back(edge.to);
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> stack;
  std::set<std::set<std::string>> reported;
  const std::function<void(const std::string&)> dfs =
      [&](const std::string& node) {
        color[node] = 1;
        stack.push_back(node);
        for (const std::string& next : adj[node]) {
          if (color[next] == 1) {
            // Found a back edge: the cycle is the stack suffix from next.
            std::set<std::string> cycle;
            for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
              cycle.insert(*it);
              if (*it == next) break;
            }
            if (reported.insert(cycle).second) {
              const Edge* site = nullptr;
              for (const auto& [key, edge] : edges_) {
                if (cycle.count(edge.from) == 0 || cycle.count(edge.to) == 0) {
                  continue;
                }
                if (site == nullptr || edge.file < site->file ||
                    (edge.file == site->file && edge.line < site->line)) {
                  site = &edge;
                }
              }
              std::ostringstream msg;
              msg << "static deadlock: lock-order cycle among {";
              bool first = true;
              for (const std::string& n : cycle) {
                if (!first) msg << ", ";
                msg << n;
                first = false;
              }
              msg << "}";
              if (site != nullptr) {
                out->push_back({site->file, site->line, "LL011", msg.str()});
              }
            }
          } else if (color[next] == 0) {
            dfs(next);
          }
        }
        stack.pop_back();
        color[node] = 2;
      };
  for (const auto& [node, targets] : adj) {
    if (color[node] == 0) dfs(node);
  }
}

std::string LockModel::DotGraph() const {
  std::set<std::string> nodes;
  for (const auto& [key, edge] : edges_) {
    nodes.insert(edge.from);
    nodes.insert(edge.to);
  }
  // Ranked locks that were actually acquired show up even when isolated,
  // so the graph is a complete inventory of the disciplined locks.
  for (const Function& fn : functions_) {
    for (const std::string& lock : fn.acquires) {
      if (RankOf(lock) != locktune::kLockRankUnranked) nodes.insert(lock);
    }
  }
  std::ostringstream os;
  os << "// Lock-order graph, generated by: locklint --lock-graph <out> "
        "<roots>\n";
  os << "// Nodes carry their rank from src/common/lock_rank_table.h; an\n";
  os << "// edge A -> B means B is acquired while A is held. The graph\n";
  os << "// must be acyclic with strictly increasing ranks (LL011).\n";
  os << "digraph lock_order {\n";
  os << "  rankdir=LR;\n";
  os << "  node [shape=box, fontname=\"Helvetica\"];\n";
  for (const std::string& n : nodes) {
    const int rank = RankOf(n);
    os << "  \"" << n << "\"";
    if (rank != locktune::kLockRankUnranked) {
      os << " [label=\"" << n << "\\nrank " << rank << "\"]";
    }
    os << ";\n";
  }
  for (const auto& [key, edge] : edges_) {
    os << "  \"" << edge.from << "\" -> \"" << edge.to << "\";\n";
  }
  os << "}\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Per-line rules (LL001..LL009).
// ---------------------------------------------------------------------------

class Linter {
 public:
  explicit Linter(SuppressionUses* used) : used_(used) {}

  void LintFile(const fs::path& path, const std::string& generic,
                const FileText& text) {
    ++files_scanned_;

    const std::string base = path.filename().string();
    const bool is_header = path.extension() == ".h" ||
                           path.extension() == ".hpp";

    std::set<std::string> unordered_names;
    CollectUnorderedIdentifiers(text, &unordered_names);
    // Members declared in the sibling header are in scope for a .cc file.
    if (!is_header) {
      fs::path sibling = path;
      sibling.replace_extension(".h");
      FileText header;
      if (fs::exists(sibling) && LoadFile(sibling, &header)) {
        CollectUnorderedIdentifiers(header, &unordered_names);
      }
    }

    for (size_t i = 0; i < text.code.size(); ++i) {
      const std::string& code = text.code[i];
      const int line_no = static_cast<int>(i) + 1;

      CheckWallclock(generic, text, i, line_no, code);
      CheckUnorderedIteration(generic, text, i, line_no, code,
                              unordered_names);
      if (kAccountingFiles.count(base) != 0) {
        CheckFloat(generic, text, i, line_no, code);
      }
      if (generic.find("src/lock/") != std::string::npos ||
          generic.find("src/memory/") != std::string::npos) {
        CheckRawAlloc(generic, text, i, line_no, code);
        CheckFaultGate(generic, text, i, line_no, code);
      }
      if (generic.find("src/lock/") != std::string::npos) {
        CheckProfileTiming(generic, text, i, line_no, code);
      }
      if (is_header) CheckNodiscard(generic, text, i, line_no, code);
      CheckAssert(generic, text, i, line_no, code);
      CheckAddressOrder(generic, text, i, line_no, code);
    }

    ScanHotColumns(generic, text);
  }

  // LL013: a struct marked `locklint: hot-column` is an SoA hot row the
  // sweep copies, swaps, and compacts byte-wise; every member must be
  // trivially copyable. Lexical scan of the struct body for owning or
  // virtual members — the paired static_assert(is_trivially_copyable_v<>)
  // in the source has the final compile-time word; this rule names the
  // offending member line at review time.
  void ScanHotColumns(const std::string& file, const FileText& text) {
    // Anchored to end-of-line so prose *mentioning* the marker (this file,
    // docs) stays inert; the real annotation is the whole comment.
    static const std::regex kMarker(R"(locklint:\s*hot-column\s*$)");
    static const std::regex kStructDecl(R"(\b(?:struct|class)\s+\w+)");
    static const std::regex kBadMember(
        R"(\bstd::(?:string|vector|deque|list|map|set|multimap|multiset|unordered_map|unordered_set|function|unique_ptr|shared_ptr|weak_ptr|any)\b|\bvirtual\b)");
    for (size_t i = 0; i < text.raw.size(); ++i) {
      if (!std::regex_search(text.raw[i], kMarker)) continue;
      // The annotated declaration sits on this line or within the next two
      // (comment block directly above the struct).
      size_t decl = i;
      bool found = false;
      for (size_t j = i; j < std::min(i + 3, text.code.size()); ++j) {
        if (std::regex_search(text.code[j], kStructDecl)) {
          decl = j;
          found = true;
          break;
        }
      }
      if (!found) {
        Add(file, static_cast<int>(i) + 1, "LL000",
            "hot-column annotation with no struct/class declaration on "
            "this line or the two below");
        continue;
      }
      int depth = 0;
      bool opened = false;
      for (size_t j = decl; j < text.code.size(); ++j) {
        std::smatch m;
        if (opened && std::regex_search(text.code[j], m, kBadMember)) {
          AddUnlessSuppressed(file, text, j, static_cast<int>(j) + 1,
                              "LL013", "hotcolumn",
                              "non-trivially-copyable member '" +
                                  m[0].str() + "' in hot-column struct");
        }
        for (const char c : text.code[j]) {
          if (c == '{') {
            ++depth;
            opened = true;
          } else if (c == '}') {
            --depth;
          }
        }
        if (opened && depth <= 0) break;
      }
    }
  }

  void AddViolations(const std::vector<Violation>& extra) {
    violations_.insert(violations_.end(), extra.begin(), extra.end());
  }

  void NoteIoError() { io_error_ = true; }

  // Any suppression-looking annotation that never suppressed a finding is
  // itself a finding: stale suppressions rot into false documentation.
  void CheckStaleSuppressions(const std::string& file, const FileText& text) {
    static const std::regex kAnnotation(
        R"(locklint:\s*([a-z]+)-ok\(\s*([^)]*))");
    static const std::set<std::string> kKnownTags = [] {
      std::set<std::string> tags;
      for (const RuleInfo& r : kRules) tags.insert(r.tag);
      return tags;
    }();
    for (size_t i = 0; i < text.raw.size(); ++i) {
      std::smatch m;
      const std::string& raw = text.raw[i];
      if (!std::regex_search(raw, m, kAnnotation)) continue;
      const std::string tag = m[1].str();
      if (kKnownTags.count(tag) == 0) continue;
      const std::string reason = m[2].str();
      if (!reason.empty() && reason[0] == '<') continue;  // syntax docs
      if (used_->count({file, i}) != 0) continue;
      violations_.push_back(
          {file, static_cast<int>(i) + 1, "LL000",
           "stale suppression: '" + tag +
               "-ok' matches no finding on this line or the line below — "
               "remove it or re-justify it"});
    }
  }

  // Sorted, deterministic report. Returns the process exit code.
  int Report(bool json) const {
    std::vector<Violation> sorted(violations_.begin(), violations_.end());
    std::sort(sorted.begin(), sorted.end());
    if (json) {
      const auto escape = [](const std::string& s) {
        std::string out;
        for (const char c : s) {
          if (c == '\\' || c == '\"') out += '\\';
          out += c;
        }
        return out;
      };
      std::cout << "{\n  \"files_scanned\": " << files_scanned_
                << ",\n  \"violations\": [";
      for (size_t i = 0; i < sorted.size(); ++i) {
        const Violation& v = sorted[i];
        std::cout << (i == 0 ? "\n" : ",\n");
        std::cout << "    {\"file\": \"" << escape(v.file)
                  << "\", \"line\": " << v.line << ", \"rule\": \"" << v.rule
                  << "\", \"message\": \"" << escape(v.message) << "\"}";
      }
      std::cout << (sorted.empty() ? "]" : "\n  ]") << "\n}\n";
    } else {
      for (const Violation& v : sorted) {
        std::cout << v.file << ":" << v.line << ": " << v.rule << ": "
                  << v.message << "\n";
      }
      std::cout << "locklint: " << sorted.size() << " violation(s) in "
                << files_scanned_ << " file(s) scanned\n";
    }
    if (io_error_) return 2;
    return sorted.empty() ? 0 : 1;
  }

 private:
  void Add(const std::string& file, int line, const char* rule,
           const std::string& message) {
    violations_.push_back({file, line, rule, message});
  }

  // Reports `rule` at `line_no` unless suppressed by `tag`-ok(<reason>).
  void AddUnlessSuppressed(const std::string& file, const FileText& text,
                           size_t idx, int line_no, const char* rule,
                           const std::string& tag,
                           const std::string& message) {
    bool bad_annotation = false;
    if (IsSuppressed(file, text.raw, idx, "locklint:", tag, &bad_annotation,
                     used_)) {
      return;
    }
    if (bad_annotation) {
      Add(file, line_no, "LL000",
          tag + "-ok() suppression requires a non-empty reason");
      return;
    }
    Add(file, line_no, rule, message);
  }

  void CheckWallclock(const std::string& file, const FileText& text,
                      size_t idx, int line_no, const std::string& code) {
    static const std::regex kDirect(
        "system_clock|std::random_device|gettimeofday|localtime|gmtime");
    // `time(`, `clock()`, `rand(`, `srand(` only when not a member access
    // or part of a longer identifier (db->clock(), SimClock::now are fine).
    static const std::regex kCall(
        R"((?:^|[^\w.>])(time|clock|rand|srand)\s*\()");
    std::smatch m;
    if (std::regex_search(code, m, kDirect)) {
      AddUnlessSuppressed(file, text, idx, line_no, "LL001", "wallclock",
                          "nondeterminism source '" + m[0].str() + "'");
      return;
    }
    if (std::regex_search(code, m, kCall) &&
        !LooksLikeDeclaration(code, m.position(1))) {
      AddUnlessSuppressed(
          file, text, idx, line_no, "LL001", "wallclock",
          "nondeterminism source '" + m[1].str() + "()'");
    }
  }

  // A libc-looking name at `pos` is a method declaration, not a call, when a
  // return type precedes it: `SimClock& clock()`, `DurationMs time() const`.
  // Calls are preceded by an operator/keyword (`= clock()`, `return time(`)
  // or start the statement.
  static bool LooksLikeDeclaration(const std::string& code, size_t pos) {
    size_t i = pos;
    while (i > 0 && code[i - 1] == ' ') --i;
    if (i == 0) return false;
    const char prev = code[i - 1];
    if (prev == '&' || prev == '*') return true;  // `Type& clock()`
    if (std::isalnum(static_cast<unsigned char>(prev)) == 0 && prev != '_') {
      return false;  // operator or punctuation: a call site
    }
    size_t w = i;
    while (w > 0 && (std::isalnum(static_cast<unsigned char>(code[w - 1])) !=
                         0 ||
                     code[w - 1] == '_')) {
      --w;
    }
    const std::string word = code.substr(w, i - w);
    // A keyword before the name still means a call; any other identifier is
    // a return type.
    return word != "return" && word != "co_return" && word != "case" &&
           word != "co_await" && word != "throw";
  }

  void CheckUnorderedIteration(const std::string& file, const FileText& text,
                               size_t idx, int line_no,
                               const std::string& code,
                               const std::set<std::string>& names) {
    // The range expression may be a member path (state.row_locks_per_table,
    // app->held); the trailing component is what the declaration pass knows.
    static const std::regex kRangeFor(
        R"(for\s*\([^;)]*:\s*((?:[A-Za-z_]\w*(?:\.|->))*([A-Za-z_]\w*))\s*\))");
    static const std::regex kBegin(
        R"((?:^|[^\w])(?:[A-Za-z_]\w*(?:\.|->))*([A-Za-z_]\w*)(?:\.|->)c?begin\s*\(\))");
    std::smatch m;
    std::string container;
    if (std::regex_search(code, m, kRangeFor) && names.count(m[2].str())) {
      container = m[2].str();
    } else if (std::regex_search(code, m, kBegin) &&
               names.count(m[1].str())) {
      container = m[1].str();
    }
    if (container.empty()) return;
    AddUnlessSuppressed(
        file, text, idx, line_no, "LL002", "ordered",
        "iteration over unordered container '" + container +
            "' — annotate ordered-ok(<reason>) if the order is harmless");
  }

  void CheckFloat(const std::string& file, const FileText& text, size_t idx,
                  int line_no, const std::string& code) {
    static const std::regex kFloat(R"(\b(float|double)\b)");
    std::smatch m;
    if (std::regex_search(code, m, kFloat)) {
      AddUnlessSuppressed(file, text, idx, line_no, "LL003", "float",
                          m[1].str() + " in an accounting file");
    }
  }

  void CheckRawAlloc(const std::string& file, const FileText& text,
                     size_t idx, int line_no, const std::string& code) {
    std::string scrubbed = code;
    // Defaulted/deleted special members are not allocations.
    static const std::regex kDefaulted(R"(=\s*(?:delete|default)\b)");
    scrubbed = std::regex_replace(scrubbed, kDefaulted, "");
    static const std::regex kAlloc(R"(\b(new|delete)\b)");
    std::smatch m;
    if (std::regex_search(scrubbed, m, kAlloc)) {
      AddUnlessSuppressed(file, text, idx, line_no, "LL004", "alloc",
                          "raw '" + m[1].str() + "' in the lock hot path");
    }
  }

  // A fault-injection hook in a hot path must sit behind the plan's
  // Armed() fast-path guard — on the same line or within the three lines
  // above — so a disarmed (fault-free) run pays one pointer test and
  // nothing else, and goldens stay byte-identical.
  void CheckFaultGate(const std::string& file, const FileText& text,
                      size_t idx, int line_no, const std::string& code) {
    static const std::regex kHook(R"(\b(fault\w*)(->|\.)(\w+)\s*\()");
    for (std::sregex_iterator it(code.begin(), code.end(), kHook), end;
         it != end; ++it) {
      const std::string method = (*it)[3].str();
      if (method == "Armed") continue;
      bool guarded = false;
      for (size_t j = idx, steps = 0; steps < 4; ++steps) {
        if (text.code[j].find("Armed") != std::string::npos) {
          guarded = true;
          break;
        }
        if (j == 0) break;
        --j;
      }
      if (guarded) continue;
      AddUnlessSuppressed(file, text, idx, line_no, "LL008", "faultgate",
                          "fault hook '" + (*it)[1].str() + (*it)[2].str() +
                              method +
                              "()' without an Armed() fast-path guard");
      return;  // one report per line
    }
  }

  // Lock-path code must not read a clock: only a reasoned profile-ok
  // suppression excuses a timing call. steady_clock is deterministic-safe
  // (LL001 does not ban it) but still costs a vDSO call per read; the
  // contention profiler (telemetry/lock_profiler.h) owns the lock path's
  // clock reads and samples them, and this rule keeps it that way.
  void CheckProfileTiming(const std::string& file, const FileText& text,
                          size_t idx, int line_no, const std::string& code) {
    static const std::regex kTiming(
        R"(steady_clock|high_resolution_clock|\b__?rdtscp?\b)");
    std::smatch m;
    if (!std::regex_search(code, m, kTiming)) return;
    AddUnlessSuppressed(file, text, idx, line_no, "LL009", "profile",
                        "timing call '" + m[0].str() + "' in lock-path code");
  }

  void CheckNodiscard(const std::string& file, const FileText& text,
                      size_t idx, int line_no, const std::string& code) {
    static const std::regex kDecl(
        R"((?:^|[^\w:<,&*])(?:Status|Result\s*<[^;={]*>)\s+([A-Za-z_]\w*)\s*\()");
    std::smatch m;
    if (!std::regex_search(code, m, kDecl)) return;
    if (code.find("[[nodiscard]]") != std::string::npos) return;
    if (idx > 0 &&
        text.code[idx - 1].find("[[nodiscard]]") != std::string::npos) {
      return;
    }
    AddUnlessSuppressed(file, text, idx, line_no, "LL005", "nodiscard",
                        "'" + m[1].str() +
                            "' returns Status/Result without [[nodiscard]]");
  }

  void CheckAssert(const std::string& file, const FileText& text, size_t idx,
                   int line_no, const std::string& code) {
    static const std::regex kAssert(R"((?:^|[^\w.])assert\s*\()");
    if (std::regex_search(code, kAssert)) {
      AddUnlessSuppressed(file, text, idx, line_no, "LL006", "assert",
                          "raw assert() — use LOCKTUNE_CHECK or "
                          "LOCKTUNE_DCHECK");
    }
  }

  void CheckAddressOrder(const std::string& file, const FileText& text,
                         size_t idx, int line_no, const std::string& code) {
    static const std::regex kCast(R"(reinterpret_cast\s*<\s*u?intptr_t\s*>)");
    static const std::regex kPtrKeyed(
        R"(std::(?:map|set)\s*<\s*(?:const\s+)?[A-Za-z_][\w:]*\s*\*)");
    std::smatch m;
    if (std::regex_search(code, m, kCast)) {
      AddUnlessSuppressed(file, text, idx, line_no, "LL007", "addr",
                          "pointer-to-integer cast orders by address");
      return;
    }
    if (std::regex_search(code, m, kPtrKeyed)) {
      AddUnlessSuppressed(
          file, text, idx, line_no, "LL007", "addr",
          "pointer-keyed ordered container iterates in address order");
    }
  }

  std::vector<Violation> violations_;
  SuppressionUses* used_;
  int files_scanned_ = 0;
  bool io_error_ = false;
};

void ListRules() {
  for (const RuleInfo& r : kRules) {
    std::cout << r.id << " (" << r.tag << "-ok): " << r.summary << "\n";
  }
}

constexpr char kUsage[] =
    "usage: locklint [--list-rules] [--json] [--lock-graph <out.dot>] "
    "<file-or-dir>...\n";

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> roots;
  bool json = false;
  std::string graph_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      ListRules();
      return 0;
    }
    if (arg == "--json") {
      json = true;
      continue;
    }
    if (arg == "--lock-graph") {
      if (i + 1 >= argc) {
        std::cerr << "locklint: --lock-graph needs an output path\n";
        return 2;
      }
      graph_path = argv[++i];
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::cerr << "locklint: unknown flag '" << arg << "'\n";
      return 2;
    }
    roots.emplace_back(arg);
  }
  if (roots.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  std::vector<fs::path> files;
  for (const fs::path& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (fs::recursive_directory_iterator it(root, ec), end; it != end;
           it.increment(ec)) {
        if (ec) break;
        if (it->is_regular_file() && IsSourceFile(it->path())) {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
    } else {
      std::cerr << "locklint: no such file or directory: " << root.string()
                << "\n";
      return 2;
    }
  }
  // Directory iteration order is unspecified; the report must not be.
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  SuppressionUses used;
  Linter linter(&used);
  LockModel model;
  std::map<std::string, FileText> texts;  // generic path → contents
  std::vector<std::pair<fs::path, std::string>> order;
  for (const fs::path& f : files) {
    const std::string generic = f.generic_string();
    FileText text;
    if (!LoadFile(f, &text)) {
      std::cerr << "locklint: cannot read " << generic << "\n";
      linter.NoteIoError();
      continue;
    }
    order.emplace_back(f, generic);
    texts.emplace(generic, std::move(text));
  }

  // Phase one: declarations and capability annotations, whole tree.
  for (const auto& [path, generic] : order) {
    model.ScanDeclarations(generic, texts.at(generic));
  }
  // Phase two: per-line rules and function models.
  for (const auto& [path, generic] : order) {
    linter.LintFile(path, generic, texts.at(generic));
    model.ScanFunctions(generic, texts.at(generic));
  }
  // Graph analysis (LL011), then the stale-suppression sweep — it must run
  // last so every legitimate suppression has had its chance to be used.
  std::vector<Violation> extra;
  model.Analyze(texts, &extra, &used);
  linter.AddViolations(extra);
  for (const auto& [path, generic] : order) {
    linter.CheckStaleSuppressions(generic, texts.at(generic));
  }

  if (!graph_path.empty()) {
    std::ofstream out(graph_path);
    if (!out) {
      std::cerr << "locklint: cannot write " << graph_path << "\n";
      return 2;
    }
    out << model.DotGraph();
  }
  return linter.Report(json);
}
