(** NEXSORT — sorting XML in external memory (Silberstein & Yang, ICDE 2004).

    The library's entry points live in {!Sorter} and are also included
    here, so [Nexsort.sort_device] works directly; sessions come from an
    engine job ([Engine], one library up).  Supporting modules:
    {!Key} and {!Ordering} (sort criteria), {!Config} (algorithm
    parameters), {!Entry}, {!Keypath}, {!Session} and {!Subtree_sort}
    (the machinery, exposed for the baselines, benchmarks and tests). *)

module Key = Key
module Ordering = Ordering
module Config = Config
module Entry = Entry
module Session = Session
module Keypath = Keypath
module Forest = Forest
module Subtree_sort = Subtree_sort
module Sort_pool = Sort_pool
module Sorter = Sorter
include Sorter
