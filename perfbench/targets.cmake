# targets.cmake — the benchmark binary and its self-tests.  Included at the
# end of the root CMakeLists.txt by attach.cmake, so `flint` is the repo's
# own library target with its own compile definitions.  Paths are absolute
# because this file is processed in the root directory's scope.
add_library(perfbench_core STATIC
  ${PERFBENCH_DIR}/src/inputs.cpp
  ${PERFBENCH_DIR}/src/report.cpp
  ${PERFBENCH_DIR}/src/stats.cpp
  ${PERFBENCH_DIR}/src/trace.cpp
  ${PERFBENCH_DIR}/src/workloads.cpp
)
target_include_directories(perfbench_core PUBLIC ${PERFBENCH_DIR}/src)
target_link_libraries(perfbench_core PUBLIC flint)

add_executable(perfbench ${PERFBENCH_DIR}/src/main.cpp)
target_link_libraries(perfbench PRIVATE perfbench_core)

add_executable(perfbench_tests ${PERFBENCH_DIR}/tests/test_perfbench.cpp)
target_link_libraries(perfbench_tests PRIVATE perfbench_core)
