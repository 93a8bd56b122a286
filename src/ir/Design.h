//===- ir/Design.h - A library of module definitions ------------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Design owns a set of module definitions that may instantiate each
/// other (acyclically). The per-module analyses of the paper are computed
/// once per definition and shared by every instantiation, which is the
/// source of the reuse speedups in Table 3 ("each unique module type only
/// needs to be analyzed once").
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_IR_DESIGN_H
#define WIRESORT_IR_DESIGN_H

#include "ir/Module.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace wiresort::ir {

/// An ordered collection of module definitions.
///
/// A Design is a value, but its module bodies are copy-on-write: a
/// module added by shared pointer (the BLIF parse cache hands out its
/// unchanged leaf models this way) and the modules of a copied Design
/// are shared until the mutable \ref module accessor is used, which
/// first copies a body that anyone else still holds. Read through a
/// const Design to never copy. A mutable reference taken before the
/// Design is copied still aliases the shared body, so take mutable
/// references after copying.
class Design {
public:
  /// Adds \p M and returns its id. Names should be unique; \ref findModule
  /// returns the first match.
  ModuleId addModule(Module M);
  /// Adds \p M without copying it, shared with its other owners.
  ModuleId addModule(std::shared_ptr<Module> M);

  Module &module(ModuleId Id) {
    std::shared_ptr<Module> &P = Modules[Id];
    if (P.use_count() != 1)
      P = std::make_shared<Module>(*P);
    return *P;
  }
  const Module &module(ModuleId Id) const { return *Modules[Id]; }
  size_t numModules() const { return Modules.size(); }

  /// Finds a module by name; InvalidId when absent.
  ModuleId findModule(const std::string &Name) const;

  /// Validates every module plus the cross-module properties local
  /// validation cannot see: instance definitions exist, instantiation is
  /// acyclic, bindings name real ports with matching widths, every
  /// instance input port is bound, and every local wire has exactly one
  /// driver once instance outputs are counted.
  ///
  /// \p KnownValidLeaves[Id] marks a module already known to pass every
  /// per-module check (an unchanged copy of one that validated before);
  /// its checks are skipped, which cannot change the first error. Only
  /// leaves count: a marked module with instances is still checked,
  /// since its bindings depend on other modules.
  std::optional<std::string>
  validate(const std::vector<bool> &KnownValidLeaves = {}) const;

  /// \returns module ids in dependency order (instantiated definitions
  /// before their instantiators), or std::nullopt if instantiation is
  /// cyclic.
  std::optional<std::vector<ModuleId>> topologicalModuleOrder() const;

private:
  std::vector<std::shared_ptr<Module>> Modules;
};

} // namespace wiresort::ir

#endif // WIRESORT_IR_DESIGN_H
