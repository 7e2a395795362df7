// Sinew's functions (paper Sections 3.2.2 and 4.1), registered into the
// engine's UDF registry exactly as the prototype installs C UDFs into
// Postgres (Section 5).
//
//   batched extraction (UdfRegistry::SetBatchExtract)
//       reads the typed attributes of serialized documents for every
//       virtual-column reference (engine::ExprKind::kVirtual): in scans, and
//       one document at a time in the scalar evaluator. Scalars come back in
//       their natural type, objects/arrays as canonical JSON text, or raw
//       serialized bytes when asked. (Deviation from the paper, which
//       downcasts everything to string in untyped contexts: natural types
//       keep results comparable across the benchmarked systems. Recorded in
//       DESIGN.md.)
//   sinew_array_contains(array, value)
//       containment over a serialized array.
//   sinew_reservoir_set(data, 'path', value) / sinew_reservoir_remove(...)
//       functional updates used by the UPDATE rewrite path.
//   sinew_render_object(bytes) / sinew_render_array(bytes)
//       a serialized collection as canonical JSON text.
//   sinew_reconstruct(data)
//       the full document as canonical JSON text.

#ifndef SINEW_SINEW_EXTRACT_FUNCTIONS_H_
#define SINEW_SINEW_EXTRACT_FUNCTIONS_H_

#include "engine/udf.h"
#include "sinew/catalog.h"

namespace sinew {

/// Registers all Sinew UDFs. `catalog` must outlive the registry.
void RegisterSinewFunctions(engine::UdfRegistry* registry,
                            AttributeCatalog* catalog);

}  // namespace sinew

#endif  // SINEW_SINEW_EXTRACT_FUNCTIONS_H_
