//===- ir/Circuit.cpp - Circuits of connected module instances ------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "ir/Circuit.h"

#include <cassert>

using namespace wiresort;
using namespace wiresort::ir;

InstId Circuit::addInstance(ModuleId Def, std::string InstName) {
  assert(Def < D->numModules() && "unknown module definition");
  Insts.push_back(Instance{Def, std::move(InstName)});
  return static_cast<InstId>(Insts.size() - 1);
}

const std::unordered_map<std::string_view, WireId> &
Circuit::portsOf(ModuleId Def) {
  if (!Ports)
    Ports = std::make_unique<PortIndex>();
  auto [It, Fresh] = Ports->ByDef.try_emplace(Def);
  if (Fresh) {
    const Module &DefM = design().module(Def);
    It->second.reserve(DefM.numPorts());
    for (WireId Port : DefM.Inputs)
      It->second.emplace(Ports->Names.intern(DefM.wire(Port).Name), Port);
    for (WireId Port : DefM.Outputs)
      It->second.emplace(Ports->Names.intern(DefM.wire(Port).Name), Port);
  }
  return It->second;
}

void Circuit::connect(InstId From, const std::string &OutPort, InstId To,
                      const std::string &InPort) {
  assert(From < Insts.size() && To < Insts.size());
  // MegaScale generators resolve millions of port names through here:
  // the interned per-definition index makes each one a hash probe, and
  // definitions repeat across instances so the index amortizes to a few
  // entries per distinct module.
  const auto &FromPorts = portsOf(Insts[From].Def);
  const auto &ToPorts = portsOf(Insts[To].Def);
  auto OutIt = FromPorts.find(std::string_view(OutPort));
  auto InIt = ToPorts.find(std::string_view(InPort));
  assert(OutIt != FromPorts.end() && "unknown output port name");
  assert(InIt != ToPorts.end() && "unknown input port name");
  WireId Out = OutIt == FromPorts.end() ? InvalidId : OutIt->second;
  WireId In = InIt == ToPorts.end() ? InvalidId : InIt->second;
  connectPorts(PortRef{From, Out}, PortRef{To, In});
}

void Circuit::connectPorts(PortRef From, PortRef To) {
  assert(From.Inst < Insts.size() && To.Inst < Insts.size());
  const Module &FromDef = defOf(From.Inst);
  const Module &ToDef = defOf(To.Inst);
  assert(FromDef.isOutput(From.Port) && "connection source must be output");
  assert(ToDef.isInput(To.Port) && "connection target must be input");
  assert(FromDef.wire(From.Port).Width == ToDef.wire(To.Port).Width &&
         "connection width mismatch");
  (void)FromDef;
  (void)ToDef;
  const bool Fresh = DrivenInputs.insert(portKey(To)).second;
  assert(Fresh && "input port already driven");
  (void)Fresh;
  Conns.push_back(Connection{From, To});
}

bool Circuit::isComplete() const {
  // One pass over the connections (output endpoints into a set; input
  // endpoints are already tracked by DrivenInputs), then one pass over
  // the ports — instead of rescanning Conns per port.
  std::unordered_set<uint64_t> DrivingOutputs;
  DrivingOutputs.reserve(Conns.size());
  for (const Connection &C : Conns)
    DrivingOutputs.insert(portKey(C.From));
  for (InstId Inst = 0; Inst != Insts.size(); ++Inst) {
    const Module &Def = defOf(Inst);
    for (WireId Port : Def.Inputs)
      if (!DrivenInputs.count(portKey(PortRef{Inst, Port})))
        return false;
    for (WireId Port : Def.Outputs)
      if (!DrivingOutputs.count(portKey(PortRef{Inst, Port})))
        return false;
  }
  return true;
}

std::string Circuit::portLabel(PortRef Ref) const {
  const std::string &Inst = Insts[Ref.Inst].Name;
  const std::string &Port = defOf(Ref.Inst).wire(Ref.Port).Name;
  std::string Label;
  Label.reserve(Inst.size() + 1 + Port.size());
  Label += Inst;
  Label += '.';
  Label += Port;
  return Label;
}

ModuleId Circuit::seal() {
  Module Top(Name);

  // One local wire per driving output port (fan-out shares the wire).
  // Flat-keyed hash maps: the old std::map paid a node allocation plus
  // O(log n) pointer chases per endpoint, which dominated sealing
  // mega-scale circuits.
  std::unordered_map<uint64_t, WireId> OutWire;
  OutWire.reserve(Conns.size());
  for (const Connection &C : Conns) {
    const uint64_t Key = portKey(C.From);
    if (!OutWire.count(Key)) {
      const Wire &PortWire = defOf(C.From.Inst).wire(C.From.Port);
      OutWire.emplace(Key, Top.addWire(portLabel(C.From), WireKind::Basic,
                                       PortWire.Width));
    }
  }

  std::unordered_map<uint64_t, WireId> InWire;
  InWire.reserve(Conns.size());
  for (const Connection &C : Conns)
    InWire.emplace(portKey(C.To), OutWire.find(portKey(C.From))->second);

  for (InstId Inst = 0; Inst != Insts.size(); ++Inst) {
    const Module &Def = defOf(Inst);
    SubInstance Sub;
    Sub.Def = Insts[Inst].Def;
    Sub.Name = Insts[Inst].Name;
    Sub.Bindings.reserve(Def.numPorts());
    for (WireId Port : Def.Inputs) {
      auto It = InWire.find(portKey(PortRef{Inst, Port}));
      WireId Local;
      if (It != InWire.end()) {
        Local = It->second;
      } else {
        // Unconnected input: promote to a top-level input port.
        Local = Top.addInput(portLabel({Inst, Port}), Def.wire(Port).Width);
      }
      Sub.Bindings.emplace_back(Port, Local);
    }
    for (WireId Port : Def.Outputs) {
      auto It = OutWire.find(portKey(PortRef{Inst, Port}));
      WireId Local;
      if (It != OutWire.end()) {
        Local = It->second;
      } else {
        // Unconnected output: promote to a top-level output port.
        Local = Top.addOutput(portLabel({Inst, Port}), Def.wire(Port).Width);
      }
      Sub.Bindings.emplace_back(Port, Local);
    }
    Top.addInstance(std::move(Sub));
  }

  return D->addModule(std::move(Top));
}
