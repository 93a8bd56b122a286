//===- parse/Blif.cpp - BLIF import/export --------------------------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "parse/Blif.h"

#include "support/FailPoint.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>
#include <vector>

using namespace wiresort;
using namespace wiresort::ir;
using namespace wiresort::parse;

namespace {

/// The BLIF whitespace set: exactly what std::isspace accepts in the "C"
/// locale (space, \t, \n, \v, \f, \r), without the per-byte locale call.
inline bool isBlifSpace(char C) {
  return C == ' ' || (C >= '\t' && C <= '\r');
}

/// The BLIF line rules, the one place they live: cuts one physical
/// line \p Raw (without its '\n') at its first '#', then drops one
/// trailing '\r' (CRLF files: the continuation test must see the
/// backslash, not the '\r' after it), then a trailing continuation
/// backslash, which \p Continues reports. Only the tail is ever cut, so
/// columns into the result are columns into the line.
std::string_view lineBody(std::string_view Raw, bool &Continues) {
  if (const void *Hash = std::memchr(Raw.data(), '#', Raw.size()))
    Raw = Raw.substr(0, static_cast<const char *>(Hash) - Raw.data());
  if (!Raw.empty() && Raw.back() == '\r')
    Raw.remove_suffix(1);
  Continues = !Raw.empty() && Raw.back() == '\\';
  if (Continues)
    Raw.remove_suffix(1);
  return Raw;
}

/// \returns \p Line's first token, or an empty view.
std::string_view firstToken(std::string_view Line) {
  size_t B = 0;
  while (B != Line.size() && isBlifSpace(Line[B]))
    ++B;
  size_t E = B;
  while (E != Line.size() && !isBlifSpace(Line[E]))
    ++E;
  return Line.substr(B, E - B);
}

/// One physical line after the line rules.
struct PhysLine {
  std::string_view Body; ///< See lineBody.
  size_t LineNo = 0;     ///< 1-based.
  /// Ended in a backslash: the next physical line joins this logical one.
  bool Continues = false;
};

/// Walks \p Text, whose first line is line \p StartLine, one physical
/// line at a time through lineBody. Pass 1 reads every line through it;
/// splitModelChunks applies the same lineBody to the few lines it needs,
/// so a chunk boundary can never land inside a logical line Pass 1 would
/// join.
class LineScanner {
public:
  LineScanner(std::string_view Text, size_t StartLine)
      : Text(Text), LineNo(StartLine - 1) {}

  bool next(PhysLine &L) {
    if (Pos >= Text.size())
      return false;
    size_t Stop = std::min(Text.find('\n', Pos), Text.size());
    L.Body = lineBody(Text.substr(Pos, Stop - Pos), L.Continues);
    L.LineNo = ++LineNo;
    Pos = Stop + 1;
    return true;
  }

private:
  std::string_view Text;
  size_t Pos = 0, LineNo;
};

/// One whitespace-separated token, a view into the parsed text, with its
/// source position.
struct BlifTok {
  std::string_view Text;
  size_t Line = 0;
  size_t Col = 0; // 1-based column of the token's first character.
};

/// Appends \p Line's tokens (with positions) to \p Out.
void tokenizeInto(std::string_view Line, size_t LineNo,
                  std::vector<BlifTok> &Out) {
  const char *First = Line.data(), *P = First, *E = First + Line.size();
  while (true) {
    while (P != E && isBlifSpace(*P))
      ++P;
    if (P == E)
      return;
    const char *Start = P;
    while (P != E && !isBlifSpace(*P))
      ++P;
    Out.push_back({std::string_view(Start, P - Start), LineNo,
                   static_cast<size_t>(Start - First) + 1});
  }
}

size_t hashName(std::string_view Name) {
  return std::hash<std::string_view>{}(Name);
}

/// Name -> WireId for one model under construction: an open-addressed
/// table of ids that compares against `Wires[Id].Name`. It holds no
/// pointers, so copying it into or out of a cache entry is one flat
/// vector copy.
class NameIndex {
public:
  /// \returns the id indexed under \p Name (with hash \p H), or
  /// InvalidId.
  WireId find(const std::vector<Wire> &Wires, std::string_view Name,
              size_t H) const {
    if (Slots.empty())
      return InvalidId;
    uint32_t Tag = tagOf(H);
    for (size_t I = Tag & mask();; I = (I + 1) & mask()) {
      const Slot &S = Slots[I];
      if (S.Id == InvalidId)
        return InvalidId;
      if (S.Tag == Tag && Wires[S.Id].Name == Name)
        return S.Id;
    }
  }

  /// Indexes \p Id, whose name (with hash \p H) must not be indexed yet.
  void insert(WireId Id, size_t H) {
    if ((Count + 1) * 2 > Slots.size())
      grow();
    place(Id, tagOf(H));
    ++Count;
  }

private:
  struct Slot {
    WireId Id = InvalidId;
    uint32_t Tag = 0; ///< Hash bits: probe start, rehash key, prefilter.
  };
  std::vector<Slot> Slots;
  size_t Count = 0;

  static uint32_t tagOf(size_t H) {
    return static_cast<uint32_t>(H ^ (static_cast<uint64_t>(H) >> 32));
  }
  size_t mask() const { return Slots.size() - 1; }
  void place(WireId Id, uint32_t Tag) {
    size_t I = Tag & mask();
    while (Slots[I].Id != InvalidId)
      I = (I + 1) & mask();
    Slots[I] = {Id, Tag};
  }
  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 16 : Old.size() * 2, Slot{});
    for (const Slot &S : Old)
      if (S.Id != InvalidId)
        place(S.Id, S.Tag);
  }
};

/// One .subckt awaiting cross-model resolution. Owns its strings: a
/// cache entry keeps it past the request whose text it came from.
struct SubcktRec {
  std::string DefName;
  std::vector<std::pair<std::string, std::string>> Pairs;
  size_t Line = 0;
  size_t Col = 0;
};

/// One .model under construction; wires are created on demand by name.
struct ModelBuilder {
  Module M;
  /// A finished leaf model (no .subckt), moved out of M by seal(). Pass 2
  /// never changes a leaf, so cache entries and designs share its body
  /// instead of copying it.
  std::shared_ptr<Module> Leaf;
  NameIndex ByName;
  /// Driven[W] != 0 once W has a driver; sized lazily.
  std::vector<uint8_t> Driven;
  std::vector<SubcktRec> Subckts;
  /// Position of the .model directive (for link-time diagnostics).
  size_t Line = 0;
  size_t Col = 0;

  WireId wireFor(std::string_view Name) {
    size_t H = hashName(Name);
    WireId W = ByName.find(M.Wires, Name, H);
    if (W != InvalidId)
      return W;
    W = M.addWire(std::string(Name), WireKind::Basic, 1);
    ByName.insert(W, H);
    return W;
  }

  /// Adds a port named \p Name; false if the name is already in use.
  bool addPort(std::string_view Name, bool IsInput) {
    size_t H = hashName(Name);
    if (ByName.find(M.Wires, Name, H) != InvalidId)
      return false;
    WireId W = IsInput ? M.addInput(std::string(Name), 1)
                       : M.addOutput(std::string(Name), 1);
    ByName.insert(W, H);
    return true;
  }

  /// Records a driver for \p W; false if it already had one.
  bool markDriven(WireId W) {
    if (W >= Driven.size())
      Driven.resize(M.Wires.size(), 0);
    if (Driven[W])
      return false;
    Driven[W] = 1;
    return true;
  }

  const Module &body() const { return Leaf ? *Leaf : M; }

  /// Moves a finished leaf model into Leaf, dropping the name index and
  /// driven set that only .subckt resolution reads.
  void seal() {
    if (Leaf || !Subckts.empty())
      return;
    Leaf = std::make_shared<Module>(std::move(M));
    ByName = NameIndex();
    Driven = std::vector<uint8_t>();
  }
};

/// Pass 1 as a resumable line consumer, so the plain path (one machine
/// over the whole file) and the chunk-cache path (one machine per
/// uncached `.model` chunk) run exactly the same transitions. Chunk
/// boundaries only ever fall on `.model` lines that start a logical
/// line, where the machine is in its initial inter-model state — which
/// is what makes a fresh Pass1 per chunk equivalent to the single pass.
///
/// Tokens are views into the text being parsed; everything Pass1 keeps
/// (wire, model and subckt names, cover rows) is copied out of them.
struct Pass1 {
  const std::string &FileName;
  std::vector<ModelBuilder> Models;
  ModelBuilder *Cur = nullptr;
  // Pending .names cover collection.
  Net *PendingLut = nullptr;
  std::vector<BlifTok> Tok;
  bool Continuing = false;
  std::optional<support::Diag> Err;

  explicit Pass1(const std::string &FileName) : FileName(FileName) {}

  bool fail(const BlifTok &T, const std::string &Msg) {
    Err = support::Diag(support::DiagCode::WS201_BLIF_SYNTAX, Msg)
              .withLoc(support::SrcLoc{FileName, T.Line, T.Col});
    return false;
  }

  /// Consumes one scanned physical line; false means Err is set.
  bool line(const PhysLine &L) {
    if (!Continuing)
      Tok.clear();
    tokenizeInto(L.Body, L.LineNo, Tok);
    Continuing = L.Continues;
    if (Continuing)
      return true;
    if (Tok.empty())
      return true;

    std::string_view Cmd = Tok[0].Text;
    if (Cmd == ".model") {
      if (Tok.size() != 2)
        return fail(Tok[0], ".model expects a name");
      Models.emplace_back();
      Cur = &Models.back();
      Cur->M.Name = std::string(Tok[1].Text);
      Cur->Line = Tok[0].Line;
      Cur->Col = Tok[0].Col;
      PendingLut = nullptr;
      return true;
    }
    if (!Cur)
      return fail(Tok[0], "directive before .model");

    if (Cmd == ".inputs" || Cmd == ".outputs") {
      bool IsInput = Cmd == ".inputs";
      for (size_t I = 1; I != Tok.size(); ++I)
        if (!Cur->addPort(Tok[I].Text, IsInput))
          return fail(Tok[I],
                      "duplicate signal '" + std::string(Tok[I].Text) + "'");
      PendingLut = nullptr;
    } else if (Cmd == ".names") {
      if (Tok.size() < 2)
        return fail(Tok[0], ".names expects at least an output");
      std::vector<WireId> Ins;
      Ins.reserve(Tok.size() - 2);
      for (size_t I = 1; I + 1 < Tok.size(); ++I)
        Ins.push_back(Cur->wireFor(Tok[I].Text));
      WireId Out = Cur->wireFor(Tok.back().Text);
      if (!Cur->markDriven(Out))
        return fail(Tok.back(), "signal '" + std::string(Tok.back().Text) +
                                    "' driven twice");
      NetId Id = Cur->M.addNet(Op::Lut, std::move(Ins), Out);
      PendingLut = &Cur->M.Nets[Id];
    } else if (Cmd == ".latch") {
      if (Tok.size() < 3)
        return fail(Tok[0], ".latch expects input and output");
      WireId D = Cur->wireFor(Tok[1].Text);
      WireId Q = Cur->wireFor(Tok[2].Text);
      if (!Cur->markDriven(Q))
        return fail(Tok[2],
                    "signal '" + std::string(Tok[2].Text) + "' driven twice");
      if (Cur->M.Wires[Q].Kind == WireKind::Input)
        return fail(Tok[2],
                    "latch drives input '" + std::string(Tok[2].Text) + "'");
      if (Cur->M.Wires[Q].Kind == WireKind::Output) {
        // Latched output port: latch into an internal reg wire and
        // buffer it out to the port.
        WireId Inner = Cur->M.addWire(std::string(Tok[2].Text) + "$latch",
                                      WireKind::Reg, 1);
        Cur->M.addNet(Op::Buf, {Inner}, Q);
        Q = Inner;
      } else {
        Cur->M.Wires[Q].Kind = WireKind::Reg;
      }
      uint64_t Init = 0;
      // Optional trailing init value (possibly after "<type> <control>").
      std::string_view Last = Tok.back().Text;
      if (Tok.size() > 3 && (Last == "0" || Last == "1"))
        Init = Last == "1" ? 1 : 0;
      Cur->M.addRegister(D, Q, Init);
      PendingLut = nullptr;
    } else if (Cmd == ".subckt") {
      if (Tok.size() < 2)
        return fail(Tok[0], ".subckt expects a model name");
      SubcktRec Rec;
      Rec.DefName = std::string(Tok[1].Text);
      Rec.Line = Tok[0].Line;
      Rec.Col = Tok[0].Col;
      for (size_t I = 2; I != Tok.size(); ++I) {
        std::string_view Pair = Tok[I].Text;
        size_t EqPos = Pair.find('=');
        if (EqPos == std::string_view::npos)
          return fail(Tok[I],
                      "malformed formal=actual '" + std::string(Pair) + "'");
        Rec.Pairs.emplace_back(Pair.substr(0, EqPos), Pair.substr(EqPos + 1));
      }
      Cur->Subckts.push_back(std::move(Rec));
      PendingLut = nullptr;
    } else if (Cmd == ".end") {
      PendingLut = nullptr;
    } else if (Cmd[0] != '.') {
      // A cover row for the pending .names.
      if (!PendingLut)
        return fail(Tok[0], "cover row outside .names");
      std::string_view Plane = Tok.size() == 2 ? Tok[0].Text : "";
      std::string_view Output = Tok.size() == 2 ? Tok[1].Text : Tok[0].Text;
      if (Output != "0" && Output != "1")
        return fail(Tok.back(), "cover output must be 0 or 1");
      if (Plane.size() != PendingLut->Inputs.size())
        return fail(Tok[0], "cover row arity mismatch");
      std::string Row;
      Row.reserve(Plane.size() + 1);
      Row.append(Plane).append(Output);
      PendingLut->Cover.push_back(std::move(Row));
    } else {
      // Unsupported directives (.clock, .exdc, ...) are rejected loudly:
      // silently skipping them could change semantics.
      return fail(Tok[0], "unsupported directive '" + std::string(Cmd) + "'");
    }
    return true;
  }
};

/// The copy of \p MB that Pass 2 works on, with lines shifted by
/// \p Delta. A sealed leaf is shared, not copied: that is most of what a
/// cache replay saves. A model that instantiates something is copied
/// whole, since Pass 2 adds its instances and their wires.
ModelBuilder pass2Copy(const ModelBuilder &MB, ptrdiff_t Delta) {
  ModelBuilder W;
  W.Line = MB.Line + Delta;
  W.Col = MB.Col;
  if (MB.Leaf) {
    W.Leaf = MB.Leaf;
    return W;
  }
  W.M = MB.M;
  W.ByName = MB.ByName;
  W.Driven = MB.Driven;
  W.Subckts = MB.Subckts;
  for (SubcktRec &Rec : W.Subckts)
    Rec.Line += Delta;
  return W;
}

/// One cached `.model` chunk: its exact bytes (the key check — a hash
/// collision must cost a re-parse, never a wrong design), the line it
/// was first parsed at, and the pristine pass-1 result. Pass 2 mutates
/// working copies of instantiating models and shares the sealed leaves,
/// which a design copies before any change (ir::Design is copy-on-write).
/// Entries own everything they hold.
struct CacheEntry {
  std::string Bytes;
  size_t StartLine = 1;
  std::vector<ModelBuilder> Models;
  /// Set once a parse that used this chunk validated. Its leaf models
  /// (no .subckt), which Pass 2 never changes, then pass every
  /// per-module check on any later replay too.
  mutable std::atomic<bool> LeavesValid{false};
};

/// One text region [Begin, End) starting at 1-based StartLine.
struct ChunkRef {
  size_t Begin = 0;
  size_t End = 0;
  size_t StartLine = 1;
};

/// \returns the number of '\n' bytes in \p Text, eight bytes per step:
/// a byte loop here would cost more than the split it serves.
size_t countNewlines(std::string_view Text) {
  constexpr uint64_t Ones = 0x0101010101010101ULL;
  constexpr uint64_t Low7 = 0x7f7f7f7f7f7f7f7fULL;
  const char *P = Text.data(), *E = P + Text.size();
  size_t N = 0;
  while (E - P >= 8) {
    // Per-byte 0/1 flags summed bytewise; flushed before any byte can
    // pass 255.
    uint64_t Flags = 0;
    for (int I = 0; I != 255 && E - P >= 8; ++I, P += 8) {
      uint64_t W;
      std::memcpy(&W, P, 8);
      uint64_t X = W ^ (Ones * '\n'); // Zero bytes mark newlines.
      Flags += (~(((X & Low7) + Low7) | X) & ~Low7) >> 7;
    }
    for (int Byte = 0; Byte != 8; ++Byte)
      N += (Flags >> (8 * Byte)) & 0xff;
  }
  for (; P != E; ++P)
    N += *P == '\n';
  return N;
}

/// Splits \p Text at `.model` lines that start a logical line: the
/// line's first token is `.model` and the line before it does not
/// continue. Boundaries are rare, so rather than reading every line this
/// jumps between `.model` occurrences and applies lineBody to just the
/// line each sits on and the line before it.
std::vector<ChunkRef> splitModelChunks(std::string_view Text) {
  std::vector<ChunkRef> Out;
  size_t CurBegin = 0, CurLine = 1;
  size_t Counted = 0, LineNo = 1; // LineNo is the line at offset Counted.
  auto lineStart = [&](size_t At) {
    size_t Nl = At == 0 ? std::string_view::npos : Text.rfind('\n', At - 1);
    return Nl == std::string_view::npos ? 0 : Nl + 1;
  };
  bool Continues = false;
  for (size_t At = Text.find(".model"); At != std::string_view::npos;) {
    size_t Begin = lineStart(At);
    size_t Stop = std::min(Text.find('\n', At), Text.size());
    At = Text.find(".model", Stop);
    if (Begin == CurBegin ||
        firstToken(lineBody(Text.substr(Begin, Stop - Begin), Continues)) !=
            ".model")
      continue;
    if (Begin != 0) {
      size_t PrevBegin = lineStart(Begin - 1);
      lineBody(Text.substr(PrevBegin, Begin - 1 - PrevBegin), Continues);
      if (Continues)
        continue;
    }
    LineNo += countNewlines(Text.substr(Counted, Begin - Counted));
    Counted = Begin;
    Out.push_back({CurBegin, Begin, CurLine});
    CurBegin = Begin;
    CurLine = LineNo;
  }
  Out.push_back({CurBegin, Text.size(), CurLine});
  return Out;
}

} // namespace

struct parse::BlifParseCache::Impl {
  const size_t MaxEntries;
  mutable std::mutex Mu;
  /// Recency order, most recent at the front; the map holds each key's
  /// position so a hit's promotion and an eviction are both O(1) —
  /// overflowing the bound costs one cold parse of the *coldest* chunk,
  /// not (as the old wholesale flush did) of every chunk a long-lived
  /// daemon had warmed.
  std::list<uint64_t> Recency;
  struct Slot {
    std::shared_ptr<const CacheEntry> Entry;
    std::list<uint64_t>::iterator Pos;
  };
  std::map<uint64_t, Slot> ByKey;
  size_t HitCount = 0, MissCount = 0;

  explicit Impl(size_t MaxEntries) : MaxEntries(MaxEntries ? MaxEntries : 1) {}

  std::shared_ptr<const CacheEntry> find(uint64_t Key,
                                         std::string_view Bytes) {
    std::lock_guard<std::mutex> L(Mu);
    auto It = ByKey.find(Key);
    // Exact-bytes guard: a hash collision must cost a re-parse, never a
    // wrong design.
    if (It != ByKey.end() && It->second.Entry->Bytes == Bytes) {
      ++HitCount;
      Recency.splice(Recency.begin(), Recency, It->second.Pos);
      return It->second.Entry;
    }
    ++MissCount;
    return nullptr;
  }

  void insert(uint64_t Key, std::shared_ptr<const CacheEntry> E) {
    std::lock_guard<std::mutex> L(Mu);
    auto It = ByKey.find(Key);
    if (It != ByKey.end()) {
      // Collision overwrite (or a racing duplicate parse): keep one
      // slot, refresh the bytes, promote.
      It->second.Entry = std::move(E);
      Recency.splice(Recency.begin(), Recency, It->second.Pos);
      return;
    }
    while (ByKey.size() >= MaxEntries && !Recency.empty()) {
      ByKey.erase(Recency.back());
      Recency.pop_back();
    }
    Recency.push_front(Key);
    ByKey.emplace(Key, Slot{std::move(E), Recency.begin()});
  }
};

parse::BlifParseCache::BlifParseCache(size_t MaxEntries)
    : I(std::make_unique<Impl>(MaxEntries)) {}
parse::BlifParseCache::~BlifParseCache() = default;

size_t parse::BlifParseCache::size() const {
  std::lock_guard<std::mutex> L(I->Mu);
  return I->ByKey.size();
}
size_t parse::BlifParseCache::hits() const {
  std::lock_guard<std::mutex> L(I->Mu);
  return I->HitCount;
}
size_t parse::BlifParseCache::misses() const {
  std::lock_guard<std::mutex> L(I->Mu);
  return I->MissCount;
}

support::Expected<BlifFile> parse::parseBlif(const std::string &Text,
                                             const std::string &FileName,
                                             const support::Deadline *DL,
                                             BlifParseCache *Cache) {
  using support::Diag;
  using support::DiagCode;
  using support::SrcLoc;

  static trace::Counter &ParseBytes = trace::counter("parse.bytes");
  static trace::Counter &ChunkHits = trace::counter("parse.chunk.hits");
  static trace::Counter &ChunkMisses = trace::counter("parse.chunk.misses");
  ParseBytes.add(Text.size());
  trace::Span ParseSpan("parse.blif", "parse");
  ParseSpan.note("file", FileName)
      .note("bytes", static_cast<uint64_t>(Text.size()));

  auto failAt = [&](DiagCode Code, size_t Line, size_t Col,
                    const std::string &Msg) {
    return Diag(Code, Msg).withLoc(SrcLoc{FileName, Line, Col});
  };

  // Feeds Text[Begin, End) to \p P line by line, numbering from
  // StartLine. The deadline poll is once per physical line: a BLIF line
  // is at most a few hundred bytes of tokenizing, so this bounds a
  // runaway input without measurable cost (the parse.cancel failpoint
  // simulates expiry deterministically).
  auto eachLine = [&](size_t Begin, size_t End, size_t StartLine,
                      Pass1 &P) -> std::optional<Diag> {
    LineScanner Lines(std::string_view(Text).substr(Begin, End - Begin),
                      StartLine);
    PhysLine L;
    while (Lines.next(L)) {
      if (DL && (DL->expired() || WS_FAILPOINT("parse.cancel")))
        return failAt(DiagCode::WS601_CANCELLED, L.LineNo, 0,
                      "parse cancelled by deadline");
      if (!P.line(L))
        return *P.Err;
    }
    return std::nullopt;
  };

  std::vector<ModelBuilder> Models;
  // Per model: replayed leaf already known valid (Design::validate may
  // skip it). Plus every chunk entry this parse used, to mark on success.
  std::vector<bool> KnownValid;
  std::vector<std::shared_ptr<const CacheEntry>> Used;
  if (!Cache) {
    Pass1 P(FileName);
    if (auto E = eachLine(0, Text.size(), 1, P))
      return *E;
    Models = std::move(P.Models);
  } else {
    for (const ChunkRef &C : splitModelChunks(Text)) {
      std::string_view Bytes(Text.data() + C.Begin, C.End - C.Begin);
      uint64_t Key = std::hash<std::string_view>{}(Bytes);
      if (auto E = Cache->I->find(Key, Bytes)) {
        // Replay: share the sealed leaves and copy the other pristine
        // models, rebasing source lines to where the chunk sits in
        // *this* file so any later resolution diagnostic is
        // byte-identical to an uncached parse.
        ChunkHits.add(1);
        ptrdiff_t Delta = static_cast<ptrdiff_t>(C.StartLine) -
                          static_cast<ptrdiff_t>(E->StartLine);
        bool Valid = E->LeavesValid.load(std::memory_order_acquire);
        for (const ModelBuilder &MB : E->Models) {
          Models.push_back(pass2Copy(MB, Delta));
          KnownValid.push_back(Valid && MB.Leaf);
        }
        Used.push_back(std::move(E));
        continue;
      }
      ChunkMisses.add(1);
      Pass1 P(FileName);
      if (auto E = eachLine(C.Begin, C.End, C.StartLine, P))
        return *E;
      auto Entry = std::make_shared<CacheEntry>();
      Entry->Bytes = std::string(Bytes);
      Entry->StartLine = C.StartLine;
      Entry->Models.reserve(P.Models.size());
      for (ModelBuilder &MB : P.Models) {
        MB.seal();
        Entry->Models.push_back(pass2Copy(MB, 0)); // pristine, pre-pass-2
      }
      Used.push_back(Entry);
      Cache->I->insert(Key, std::move(Entry));
      for (ModelBuilder &MB : P.Models) {
        Models.push_back(std::move(MB));
        KnownValid.push_back(false);
      }
    }
  }

  if (Models.empty())
    return failAt(DiagCode::WS202_BLIF_STRUCTURE, 0, 0, "no .model found");

  // Second pass: resolve subcircuit references across models.
  std::map<std::string, ModuleId> IdByName;
  for (ModuleId Id = 0; Id != Models.size(); ++Id) {
    const ModelBuilder &MB = Models[Id];
    if (!IdByName.emplace(MB.body().Name, Id).second)
      return failAt(DiagCode::WS202_BLIF_STRUCTURE, MB.Line, MB.Col,
                    "duplicate model '" + MB.body().Name + "'");
  }
  // Every .subckt resolves before any module moves into the design: a
  // formal may name a port of a model anywhere in the file, earlier or
  // later, or of the instantiating model itself.
  for (ModelBuilder &MB : Models) {
    for (const SubcktRec &Rec : MB.Subckts) {
      auto It = IdByName.find(Rec.DefName);
      if (It == IdByName.end())
        return failAt(DiagCode::WS202_BLIF_STRUCTURE, Rec.Line, Rec.Col,
                      ".subckt references unknown model '" + Rec.DefName +
                          "'");
      // Formal names are resolved against the referenced model's ports.
      SubInstance Inst;
      Inst.Def = It->second;
      Inst.Name = Rec.DefName + "$" + std::to_string(MB.M.Instances.size());
      const Module &Def = Models[It->second].body();
      for (const auto &[Formal, Actual] : Rec.Pairs) {
        WireId Port = Def.findPort(Formal);
        if (Port == InvalidId)
          return failAt(DiagCode::WS202_BLIF_STRUCTURE, Rec.Line, Rec.Col,
                        "model '" + Rec.DefName + "' has no port '" +
                            Formal + "'");
        WireId Local = MB.wireFor(Actual);
        if (Def.isOutput(Port) && !MB.markDriven(Local))
          return failAt(DiagCode::WS202_BLIF_STRUCTURE, Rec.Line, Rec.Col,
                        "signal '" + Actual + "' driven twice");
        Inst.Bindings.emplace_back(Port, Local);
      }
      MB.M.addInstance(std::move(Inst));
    }
  }
  BlifFile Result;
  for (ModelBuilder &MB : Models) {
    if (MB.Leaf)
      Result.Design.addModule(std::move(MB.Leaf));
    else
      Result.Design.addModule(std::move(MB.M));
  }
  Result.Top = 0; // Models are added in file order; the first is top.

  if (auto Err = Result.Design.validate(KnownValid))
    return failAt(DiagCode::WS202_BLIF_STRUCTURE, 0, 0, *Err);
  for (const auto &E : Used)
    E->LeavesValid.store(true, std::memory_order_release);
  return Result;
}

namespace {

void writeModel(std::ostringstream &OS, const Design &D, const Module &M) {
  OS << ".model " << M.Name << "\n.inputs";
  for (WireId In : M.Inputs)
    OS << ' ' << M.wire(In).Name;
  OS << "\n.outputs";
  for (WireId Out : M.Outputs)
    OS << ' ' << M.wire(Out).Name;
  OS << '\n';

  // Constants become zero-input covers.
  for (WireId W = 0; W != M.numWires(); ++W) {
    const Wire &Wr = M.wire(W);
    assert(Wr.Width == 1 && "writeBlif requires a bit-level module");
    if (Wr.Kind != WireKind::Const)
      continue;
    OS << ".names " << Wr.Name << '\n';
    if (Wr.ConstValue & 1)
      OS << "1\n";
  }

  auto name = [&](WireId W) -> const std::string & {
    return M.wire(W).Name;
  };
  for (const Net &N : M.Nets) {
    if (N.Operation == Op::Lut) {
      OS << ".names";
      for (WireId In : N.Inputs)
        OS << ' ' << name(In);
      OS << ' ' << name(N.Output) << '\n';
      for (const std::string &Row : N.Cover) {
        if (Row.size() == 1)
          OS << Row << '\n';
        else
          OS << Row.substr(0, Row.size() - 1) << ' ' << Row.back() << '\n';
      }
      continue;
    }
    OS << ".names";
    for (WireId In : N.Inputs)
      OS << ' ' << name(In);
    OS << ' ' << name(N.Output) << '\n';
    switch (N.Operation) {
    case Op::And:
      OS << "11 1\n";
      break;
    case Op::Or:
      OS << "1- 1\n-1 1\n";
      break;
    case Op::Xor:
      OS << "10 1\n01 1\n";
      break;
    case Op::Nand:
      OS << "0- 1\n-0 1\n";
      break;
    case Op::Nor:
      OS << "00 1\n";
      break;
    case Op::Xnor:
      OS << "11 1\n00 1\n";
      break;
    case Op::Not:
      OS << "0 1\n";
      break;
    case Op::Buf:
      OS << "1 1\n";
      break;
    case Op::Mux:
      OS << "11- 1\n0-1 1\n";
      break;
    default:
      assert(false && "writeBlif requires primitive operations");
    }
  }
  for (const Register &R : M.Registers)
    OS << ".latch " << name(R.D) << ' ' << name(R.Q) << " re clk "
       << (R.Init & 1) << '\n';
  for (const SubInstance &Inst : M.Instances) {
    const Module &Def = D.module(Inst.Def);
    OS << ".subckt " << Def.Name;
    for (const auto &[DefPort, Local] : Inst.Bindings)
      OS << ' ' << Def.wire(DefPort).Name << '=' << name(Local);
    OS << '\n';
  }
  OS << ".end\n";
}

} // namespace

std::string parse::writeBlif(const Design &D, ModuleId Top) {
  // Emit top first, then every reachable definition once.
  std::vector<ModuleId> Order{Top};
  std::set<ModuleId> Seen{Top};
  for (size_t I = 0; I != Order.size(); ++I)
    for (const SubInstance &Inst : D.module(Order[I]).Instances)
      if (Seen.insert(Inst.Def).second)
        Order.push_back(Inst.Def);

  std::ostringstream OS;
  for (ModuleId Id : Order)
    writeModel(OS, D, D.module(Id));
  return OS.str();
}
