open Sva_analysis

type variant = {
  v_name : string;
  v_mm_analyzed : bool;
  v_usercopy_analyzed : bool;
  v_userspace_valid : bool;
  v_externs_complete : bool;
}

let as_tested =
  {
    v_name = "as-tested";
    v_mm_analyzed = false;
    v_usercopy_analyzed = false;
    v_userspace_valid = false;
    v_externs_complete = false;
  }

let entire_kernel =
  {
    v_name = "entire-kernel";
    v_mm_analyzed = true;
    v_usercopy_analyzed = true;
    v_userspace_valid = true;
    v_externs_complete = true;
  }

let with_usercopy = { as_tested with v_name = "usercopy-compiled"; v_usercopy_analyzed = true }

type section = { sec_name : string; sec_source : string }

let sections v =
  [
    { sec_name = "Arch-dep core (SVA-OS layer)"; sec_source = Ksrc_decls.source };
    {
      sec_name = "Memory subsystem";
      sec_source = Ksrc_mm.source ~analyzed:v.v_mm_analyzed;
    };
    {
      sec_name = "Arch-indep core";
      sec_source = Ksrc_core.source ~usercopy_analyzed:v.v_usercopy_analyzed;
    };
    { sec_name = "Core Filesys."; sec_source = Ksrc_fs.source };
    { sec_name = "Block Filesys. (disk driver)"; sec_source = Ksrc_bfs.source };
    { sec_name = "Net Protocols"; sec_source = Ksrc_net.source };
    { sec_name = "Net Drivers (bluetooth)"; sec_source = Ksrc_bt.source };
    { sec_name = "Init"; sec_source = Ksrc_init.source };
  ]

let sources v = List.map (fun s -> s.sec_source) (sections v)

let allocators =
  [
    Allocdecl.ordinary ~free:"kfree" ~size_arg:0
      ~size_classes:[ 32; 64; 128; 256; 512; 1024; 2048; 4096 ]
      "kmalloc";
    Allocdecl.pool ~free:"kmem_cache_free" ~size_fn:"kmem_cache_objsize"
      ~pool_arg:0 "kmem_cache_alloc";
    Allocdecl.ordinary ~free:"vfree" ~size_arg:0 "vmalloc";
    Allocdecl.ordinary ~size_arg:0 "_alloc_bootmem";
    Allocdecl.ordinary ~size_arg:0 "kernel_lifetime_alloc";
  ]

let aconfig v =
  {
    Pointsto.default_config with
    Pointsto.allocators;
    copy_functions = [ "memcpy"; "memmove"; "strcpy" ];
    known_externs = [ "memset"; "strlen"; "strcmp"; "memcmp" ];
    user_copy_functions = [ "copy_from_user"; "copy_to_user" ];
    syscall_register = Some "sva_register_syscall";
    syscall_invoke = Some "sva_syscall";
    userspace_valid = v.v_userspace_valid;
    externs_complete = v.v_externs_complete;
  }

let fixture_sources v = sources v @ [ Ksrc_lintbugs.source ]
let race_fixture_sources v = sources v @ [ Ksrc_racebugs.source ]

(* The user-copy library dereferences user pointers by design: its raw
   copy loops are the only code allowed to touch userspace (Section 4.6),
   so the taint checker treats them as trusted boundaries. *)
let lint_config v =
  Sva_lint.Lint.config_of_aconfig
    ~extra_trusted:[ "__copy_user"; "strncpy_from_user" ]
    (aconfig v)

let build ?(conf = Sva_pipeline.Pipeline.Sva_safe) ?(lint = false)
    ?(ranges = false) ?(races = false) ?(poolcert = false) v =
  Sva_pipeline.Pipeline.build ~conf ~aconfig:(aconfig v)
    ?lint:(if lint then Some (lint_config v) else None)
    ~ranges ~races ~poolcert
    ~name:("ukern-" ^ v.v_name)
    (sources v)
