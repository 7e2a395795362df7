# Layering checks over the engine sources:
#  - the engine knows virtual columns only as kVirtual expression nodes and
#    its registered batch extractor, never by the Sinew layer's function
#    names: no file under the engine source directory mentions a
#    sinew_extract function;
#  - statements reach rows only through plans: the statement executor
#    (database.cc) names none of the row-at-a-time Table accessors
#    RowSlotCount, ReadRow or IsLive;
#  - the executor (exec.cc) evaluates expressions only on the bytecode VM:
#    it names neither scalar evaluator entry point (EvalExpr, EvalPredicate)
#    nor a row-at-a-time operator protocol (RowReader, RowOperator);
#  - the VM (bytecode.cc) compiles every expression, so it never falls back
#    to the scalar evaluator: it names neither EvalExpr nor EvalPredicate;
#  - the scan never boxes a row to read it: exec.cc reaches row bytes only
#    through the typed row walker (WalkRow), naming neither the deleted
#    boxed row decoders (DecodeRowSlots, DecodeRowColumn, RowSlotBytes) nor
#    a scratch decode row (scratch_).
#
#   cmake -DENGINE_DIR=<repo>/src/engine -P tests/engine_layering.cmake
if(NOT IS_DIRECTORY "${ENGINE_DIR}")
  message(FATAL_ERROR "ENGINE_DIR is not a directory: '${ENGINE_DIR}'")
endif()
set(failures "")
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
file(STRINGS "${ENGINE_DIR}/exec.cc" hits
     REGEX "EvalExpr|EvalPredicate|RowReader|RowOperator")
if(hits)
  list(APPEND failures
       "${ENGINE_DIR}/exec.cc evaluates outside the bytecode VM: ${hits}")
endif()
file(STRINGS "${ENGINE_DIR}/bytecode.cc" hits REGEX "EvalExpr|EvalPredicate")
if(hits)
  list(APPEND failures
       "${ENGINE_DIR}/bytecode.cc falls back to the scalar evaluator: ${hits}")
endif()
file(STRINGS "${ENGINE_DIR}/exec.cc" hits
     REGEX "DecodeRowSlots|DecodeRowColumn|RowSlotBytes|scratch_")
if(hits)
  list(APPEND failures
       "${ENGINE_DIR}/exec.cc decodes rows outside the typed walker: ${hits}")
endif()
if(failures)
  list(JOIN failures "\n  " listing)
  message(FATAL_ERROR "engine layering violated:\n  ${listing}")
endif()
