# Benchmark / reproduction binaries: one per paper table or figure.
# Included from the top-level CMakeLists (not add_subdirectory) so that
# build/bench/ contains only the bench executables.
file(GLOB BENCH_SOURCES CONFIGURE_DEPENDS
    ${CMAKE_CURRENT_LIST_DIR}/*.cc)

foreach(bench_src ${BENCH_SOURCES})
    get_filename_component(bench_name ${bench_src} NAME_WE)
    add_executable(${bench_name} ${bench_src})
    target_link_libraries(${bench_name} PRIVATE leaseos
        benchmark::benchmark)
    set_target_properties(${bench_name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endforeach()

# The hot-path benches additionally link the counting operator new/delete
# so they can report allocs/op (the DESIGN.md §8 zero-allocation proof).
foreach(bench_name bench_eventqueue bench_fleet)
    target_sources(${bench_name} PRIVATE
        ${CMAKE_CURRENT_LIST_DIR}/support/alloc_counter.cc)
    target_include_directories(${bench_name} PRIVATE
        ${CMAKE_CURRENT_LIST_DIR})
endforeach()

# An unknown flag is a usage error (exit 2), not a default-sized run.
add_test(NAME bench_fleet_rejects_--device=5
    COMMAND ${CMAKE_COMMAND} -DCMD=$<TARGET_FILE:bench_fleet>
        -DARG=--device=5 -DEXPECT=2
        -P ${CMAKE_SOURCE_DIR}/cmake/expect_exit.cmake)
