# attach.cmake — hooks the benchmark binary into the repo's own build.
#
# run.py configures the repository root with
#   -DCMAKE_PROJECT_flint_INCLUDE=<this file>
# so the library and the CLI build with exactly the repo's flags and
# compile definitions.  This file runs at the end of `project(flint)`,
# before the `flint` target exists, so it defers including targets.cmake
# until the root CMakeLists.txt has been fully processed.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${PERFBENCH_DIR}/targets.cmake")
