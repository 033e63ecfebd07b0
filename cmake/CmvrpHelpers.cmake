# Shared helpers for cmvrp targets: warning flags and library/binary factories.

set(CMVRP_WARNING_FLAGS -Wall -Wextra)
if(CMVRP_WERROR)
  list(APPEND CMVRP_WARNING_FLAGS -Werror)
endif()

# cmvrp_add_library(<name> SOURCES ... [DEPS ...])
#
# Declares one per-layer static library rooted at src/. Header-only layers
# (no SOURCES) become INTERFACE libraries so dependents still inherit the
# include path and transitive deps.
function(cmvrp_add_library name)
  cmake_parse_arguments(ARG "" "" "SOURCES;DEPS" ${ARGN})
  if(ARG_SOURCES)
    add_library(${name} STATIC ${ARG_SOURCES})
    target_include_directories(${name} PUBLIC ${PROJECT_SOURCE_DIR}/src)
    target_compile_options(${name} PRIVATE ${CMVRP_WARNING_FLAGS})
    if(ARG_DEPS)
      target_link_libraries(${name} PUBLIC ${ARG_DEPS})
    endif()
  else()
    add_library(${name} INTERFACE)
    target_include_directories(${name} INTERFACE ${PROJECT_SOURCE_DIR}/src)
    if(ARG_DEPS)
      target_link_libraries(${name} INTERFACE ${ARG_DEPS})
    endif()
  endif()
endfunction()

# cmvrp_add_binary(<name> <source> [DEPS ...])
#
# One standalone executable (example / tool). Warnings on, but no
# -Werror: these are drivers, not library code.
function(cmvrp_add_binary name source)
  cmake_parse_arguments(ARG "" "" "DEPS" ${ARGN})
  add_executable(${name} ${source})
  target_compile_options(${name} PRIVATE -Wall -Wextra)
  target_link_libraries(${name} PRIVATE ${ARG_DEPS})
endfunction()
