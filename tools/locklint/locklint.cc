// locklint — the repo's determinism & invariant linter.
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
//                       high_resolution_clock, rdtsc) in src/lock/ — the
//                       lock path reads no clock; host timing belongs to
//                       the callers that drive it
//   LL000 annotation    malformed suppression (empty reason), or a stale
//                       suppression that matches no finding
//
// Suppressions: `// locklint: <tag>-ok(<reason>)` on the violating line or
// the line directly above. The reason is mandatory; an empty one is itself
// a violation, and so is a suppression that no longer suppresses anything
// (stale). Tags: wallclock-ok, ordered-ok, float-ok, alloc-ok,
// nodiscard-ok, assert-ok, addr-ok, faultgate-ok, profile-ok.
//
// Usage: locklint [--list-rules] [--json] <file-or-dir>...
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
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <utility>
#include <vector>

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
     "in src/lock/; time the lock path from its caller or annotate "
     "profile-ok(<reason>)"},
};

// Basenames of files where integral accounting is mandatory (LL003).
const std::set<std::string> kAccountingFiles = {
    "block_list.h", "block_list.cc", "lock_block.h", "lock_block.cc",
    "memory_heap.h", "lock_table.h", "lock_table.cc", "lock_head.h",
    "lock_head.cc", "units.h",
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
//   std::unordered_map<AppId, AppState> apps_;
// Used file-locally plus from the sibling header, so members declared in
// foo.h are known while scanning foo.cc.
void CollectUnorderedIdentifiers(const FileText& text,
                                 std::set<std::string>* names) {
  static const std::regex kDecl(
      R"(unordered_(?:map|set)\s*<[^;{}]*>\s+([A-Za-z_]\w*)\s*(?:;|=|\{|$))");
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
  // (LL001 does not ban it) but still costs a vDSO call per read, paid on
  // every request; whoever wants host timings reads the clock around the
  // lock calls, outside src/lock/.
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
    "usage: locklint [--list-rules] [--json] <file-or-dir>...\n";

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> roots;
  bool json = false;
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

  for (const auto& [path, generic] : order) {
    linter.LintFile(path, generic, texts.at(generic));
  }
  // The stale-suppression sweep runs last, so every legitimate suppression
  // has had its chance to be used.
  for (const auto& [path, generic] : order) {
    linter.CheckStaleSuppressions(generic, texts.at(generic));
  }
  return linter.Report(json);
}
