# Layering checks over the library sources:
#  - one evaluator in the library: no file under src/ names the scalar tree
#    walk (EvalExpr, EvalPredicate), not even in a comment. It lives in
#    tests/scalar_eval.h as the reference the bytecode VM is checked
#    against; constant folding and INSERT VALUES run the VM over one lane;
#  - the engine knows virtual columns only as kVirtual expression nodes and
#    its registered batch extractor, never by the Sinew layer's function
#    names: no file under the engine source directory mentions a
#    sinew_extract function;
#  - statements reach rows only through plans: the statement executor
#    (database.cc) names none of the row-at-a-time Table accessors
#    RowSlotCount, ReadRow or IsLive;
#  - the executor (exec.cc) reads batches only: it names no row-at-a-time
#    operator protocol (RowReader, RowOperator);
#  - the scan never boxes a row to read it: exec.cc reaches row bytes only
#    through the typed row walker (WalkRow), naming neither the deleted
#    boxed row decoders (DecodeRowSlots, DecodeRowColumn, RowSlotBytes) nor
#    a scratch decode row (scratch_);
#  - strip values enter a scan batch only through the typed fill: exec.cc
#    names no per-value strip accessor (GetDatum);
#  - strips are an in-memory index, never a file: no file under src/ names
#    a strip sidecar (.strips, StripSidecar) or a strip encoder
#    (EncodeColumnStrip).
#
#   cmake -DSRC_DIR=<repo>/src -P tests/engine_layering.cmake
if(NOT IS_DIRECTORY "${SRC_DIR}/engine")
  message(FATAL_ERROR "SRC_DIR has no engine directory: '${SRC_DIR}'")
endif()
set(ENGINE_DIR "${SRC_DIR}/engine")
set(failures "")
file(GLOB_RECURSE sources "${SRC_DIR}/*")
foreach(source IN LISTS sources)
  file(STRINGS "${source}" hits REGEX "EvalExpr|EvalPredicate")
  if(hits)
    list(APPEND failures
         "${source} names the scalar tree walk, which lives in tests/: ${hits}")
  endif()
endforeach()
file(GLOB_RECURSE sources "${SRC_DIR}/*")
foreach(source IN LISTS sources)
  file(STRINGS "${source}" hits REGEX "[\" `>]\\.strips|tbl\\.strips|StripSidecar|EncodeColumnStrip")
  if(hits)
    list(APPEND failures "${source} writes strips to disk: ${hits}")
  endif()
endforeach()
file(GLOB_RECURSE sources "${ENGINE_DIR}/*")
foreach(source IN LISTS sources)
  file(STRINGS "${source}" hits REGEX "sinew_extract")
  if(hits)
    list(APPEND failures "${source} names a Sinew extraction function")
  endif()
endforeach()
file(STRINGS "${ENGINE_DIR}/database.cc" hits
     REGEX "RowSlotCount|ReadRow|IsLive")
if(hits)
  list(APPEND failures
       "${ENGINE_DIR}/database.cc reaches rows outside a plan: ${hits}")
endif()
file(STRINGS "${ENGINE_DIR}/exec.cc" hits REGEX "RowReader|RowOperator")
if(hits)
  list(APPEND failures
       "${ENGINE_DIR}/exec.cc reads rows outside the batch protocol: ${hits}")
endif()
file(STRINGS "${ENGINE_DIR}/exec.cc" hits
     REGEX "DecodeRowSlots|DecodeRowColumn|RowSlotBytes|scratch_")
if(hits)
  list(APPEND failures
       "${ENGINE_DIR}/exec.cc decodes rows outside the typed walker: ${hits}")
endif()
file(STRINGS "${ENGINE_DIR}/exec.cc" hits REGEX "GetDatum")
if(hits)
  list(APPEND failures
       "${ENGINE_DIR}/exec.cc boxes strip values outside the typed fill: ${hits}")
endif()
if(failures)
  list(JOIN failures "\n  " listing)
  message(FATAL_ERROR "engine layering violated:\n  ${listing}")
endif()
