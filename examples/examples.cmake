# Runnable examples exercising the public API. Included from the
# top-level CMakeLists so build/examples/ contains only the executables.
file(GLOB EXAMPLE_SOURCES CONFIGURE_DEPENDS
    ${CMAKE_CURRENT_LIST_DIR}/*.cc ${CMAKE_CURRENT_LIST_DIR}/*.cpp)

foreach(example_src ${EXAMPLE_SOURCES})
    get_filename_component(example_name ${example_src} NAME_WE)
    add_executable(${example_name} ${example_src})
    target_link_libraries(${example_name} PRIVATE leaseos)
    set_target_properties(${example_name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/examples)
endforeach()

# A mistyped flag must stop sharded_cell with a usage error (exit 2):
# the sharded-determinism CI job would otherwise diff single-shot
# output against itself.
foreach(bad_arg --shards=4x --shard=4)
    add_test(NAME sharded_cell_rejects_${bad_arg}
        COMMAND ${CMAKE_COMMAND} -DCMD=$<TARGET_FILE:sharded_cell>
            -DARG=${bad_arg} -DEXPECT=2
            -P ${CMAKE_SOURCE_DIR}/cmake/expect_exit.cmake)
endforeach()
