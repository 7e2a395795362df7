# Layering check: the engine knows virtual columns only as kVirtual
# expression nodes and its registered batch extractor, never by the Sinew
# layer's function names. Fails if any file under the engine source
# directory mentions a sinew_extract function.
#
#   cmake -DENGINE_DIR=<repo>/src/engine -P tests/engine_layering.cmake
if(NOT IS_DIRECTORY "${ENGINE_DIR}")
  message(FATAL_ERROR "ENGINE_DIR is not a directory: '${ENGINE_DIR}'")
endif()
file(GLOB_RECURSE sources "${ENGINE_DIR}/*")
set(offenders "")
foreach(source IN LISTS sources)
  file(STRINGS "${source}" hits REGEX "sinew_extract")
  if(hits)
    list(APPEND offenders "${source}")
  endif()
endforeach()
if(offenders)
  list(JOIN offenders "\n  " listing)
  message(FATAL_ERROR
    "engine sources name Sinew extraction functions:\n  ${listing}")
endif()
