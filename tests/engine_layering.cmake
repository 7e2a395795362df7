# Layering checks over the engine sources:
#  - the engine knows virtual columns only as kVirtual expression nodes and
#    its registered batch extractor, never by the Sinew layer's function
#    names: no file under the engine source directory mentions a
#    sinew_extract function;
#  - statements reach rows only through plans: the statement executor
#    (database.cc) names none of the row-at-a-time Table accessors
#    RowSlotCount, ReadRow or IsLive.
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
if(failures)
  list(JOIN failures "\n  " listing)
  message(FATAL_ERROR "engine layering violated:\n  ${listing}")
endif()
