(* Pinned collective selection and timing across network descriptions.

   For bcast, allreduce, allgather and alltoall at p in {1, 2, 3, 5, 8, 64}
   and payloads of 0 B, 8 B, 4 KiB and 256 KiB, one call's algorithm
   choices ([algo_calls]) and simulated time are recorded on four networks:
   the flat model, the [two:4] and [fat:2:2:1] specs, and a scattered
   placement with two ranks per node.  The values are golden: a change to
   how the network is described must leave every one of them bit-identical
   (times are compared as hex floats).

   The payload is the per-rank buffer for bcast/allreduce and the
   per-destination block for allgather/alltoall.  Up to 4 KiB it is an
   [int] buffer; the 256 KiB point uses 4 KiB contiguous elements so the
   64-rank all-to-all stays small in host memory. *)

module N = Simnet.Netmodel
module C = Mpisim.Collectives
module D = Mpisim.Datatype

type payload = P : { dt : 'a D.t; op : 'a Mpisim.Op.t; elt : 'a; count : int } -> payload

let block_4k = D.contiguous D.int 512
let first = Mpisim.Op.of_fun ~name:"first" (fun a _ -> a)

let payload bytes =
  if bytes >= 4096 * 64 then
    P { dt = block_4k; op = first; elt = Array.make 512 0; count = bytes / 4096 }
  else P { dt = D.int; op = Mpisim.Op.int_sum; elt = 1; count = bytes / 8 }

(* Two ranks per node, dealt through the multiplicative permutation of
   [Topology.Place.scattered] (which needs the node size to divide p); an
   odd p leaves the last node with one rank. *)
let scattered2 p =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let mu = ref (Int.max 1 (p * 2 / 5)) in
  while gcd !mu p <> 1 do
    incr mu
  done;
  let node_of = Array.init p (fun r -> !mu * r mod p / 2) in
  {
    N.f_node_of = node_of;
    f_rack_of = Array.make ((p + 1) / 2) 0;
    f_node = N.intra_node;
    f_rack = N.default;
    f_core = N.default;
    f_uplinks = 0;
  }

let networks =
  [
    ("flat", fun _ -> None);
    ("two:4", fun p -> Some (N.fabric_of_spec ~ranks:p "two:4"));
    ("fat:2:2:1", fun p -> Some (N.fabric_of_spec ~ranks:p "fat:2:2:1"));
    ("scattered2", fun p -> Some (scattered2 p));
  ]

let ps = [ 1; 2; 3; 5; 8; 64 ]
let sizes = [ 0; 8; 4096; 262144 ]
let colls = [ "bcast"; "allreduce"; "allgather"; "alltoall" ]

let measure ?fabric ~p coll bytes =
  let (P pl) = payload bytes in
  let n = pl.count in
  let buf len = Array.make len pl.elt in
  let res =
    Mpisim.Mpi.run ?fabric ~ranks:p (fun comm ->
        match coll with
        | "bcast" -> C.bcast comm pl.dt (buf n) ~root:0
        | "allreduce" -> C.allreduce comm pl.dt pl.op ~sendbuf:(buf n) ~recvbuf:(buf n) ~count:n
        | "allgather" -> C.allgather comm pl.dt ~sendbuf:(buf n) ~recvbuf:(buf (p * n)) ~count:n
        | _ -> C.alltoall comm pl.dt ~sendbuf:(buf (p * n)) ~recvbuf:(buf (p * n)) ~count:n)
  in
  ignore (Mpisim.Mpi.results_exn res : unit array);
  let algos =
    String.concat ","
      (List.map
         (fun (a, c) -> Printf.sprintf "%s*%d" a c)
         res.Mpisim.Mpi.profile.Mpisim.Profiling.algo_calls)
  in
  Printf.sprintf "%s %h" algos res.Mpisim.Mpi.sim_time

(* One line per (network, p, collective): the four payload points. *)
let lines () =
  List.concat_map
    (fun (net, fabric_of) ->
      List.concat_map
        (fun p ->
          List.map
            (fun coll ->
              let fabric = fabric_of p in
              Printf.sprintf "%s p=%d %s: %s" net p coll
                (String.concat " | " (List.map (measure ?fabric ~p coll) sizes)))
            colls)
        ps)
    networks

(* The pins describe the incumbent deterministic schedule on the network
   named in each line, so neither an exploration factory nor an
   environment topology may leak in. *)
let isolated f =
  let factory = !Mpisim.Exhook.factory in
  let topo = Option.value ~default:"" (Sys.getenv_opt "MPISIM_TOPOLOGY") in
  Mpisim.Exhook.factory := (fun () -> None);
  Unix.putenv "MPISIM_TOPOLOGY" "";
  Fun.protect
    ~finally:(fun () ->
      Mpisim.Exhook.factory := factory;
      Unix.putenv "MPISIM_TOPOLOGY" topo)
    f

let expected =
  [
    "flat p=1 bcast: MPI_Bcast[binomial]*1 0x0p+0 | MPI_Bcast[binomial]*1 0x0p+0 | MPI_Bcast[binomial]*1 0x0p+0 | MPI_Bcast[binomial]*1 0x0p+0";
    "flat p=1 allreduce: MPI_Allreduce[reduce_bcast]*1 0x0p+0 | MPI_Allreduce[reduce_bcast]*1 0x0p+0 | MPI_Allreduce[reduce_bcast]*1 0x0p+0 | MPI_Allreduce[reduce_bcast]*1 0x0p+0";
    "flat p=1 allgather: MPI_Allgather[bruck]*1 0x0p+0 | MPI_Allgather[bruck]*1 0x0p+0 | MPI_Allgather[bruck]*1 0x0p+0 | MPI_Allgather[bruck]*1 0x0p+0";
    "flat p=1 alltoall: MPI_Alltoall[bruck]*1 0x0p+0 | MPI_Alltoall[bruck]*1 0x0p+0 | MPI_Alltoall[bruck]*1 0x0p+0 | MPI_Alltoall[bruck]*1 0x0p+0";
    "flat p=2 bcast: MPI_Bcast[binomial]*2 0x0p+0 | MPI_Bcast[binomial]*2 0x1.92d33210d137fp-19 | MPI_Bcast[binomial]*2 0x1.ea9d3696f3d79p-19 | MPI_Bcast[binomial]*2 0x1.79027188a72dap-15";
    "flat p=2 allreduce: MPI_Allreduce[recursive_doubling]*2 0x0p+0 | MPI_Allreduce[recursive_doubling]*2 0x1.92f58e28a185ap-19 | MPI_Allreduce[recursive_doubling]*2 0x1.17aab31bc798fp-18 | MPI_Allreduce[recursive_doubling]*2 0x1.7b283305ac087p-15";
    "flat p=2 allgather: MPI_Allgather[bruck]*2 0x0p+0 | MPI_Allgather[bruck]*2 0x1.92d33210d137fp-19 | MPI_Allgather[bruck]*2 0x1.ea9d3696f3d79p-19 | MPI_Allgather[bruck]*2 0x1.79027188a72dap-15";
    "flat p=2 alltoall: MPI_Alltoall[bruck]*2 0x0p+0 | MPI_Alltoall[pairwise]*2 0x1.92d33210d137fp-19 | MPI_Alltoall[bruck]*2 0x1.ea9d3696f3d79p-19 | MPI_Alltoall[pairwise]*2 0x1.79027188a72dap-15";
    "flat p=3 bcast: MPI_Bcast[binomial]*3 0x0p+0 | MPI_Bcast[binomial]*3 0x1.d6050e138a67ap-19 | MPI_Bcast[binomial]*3 0x1.2cda0a6e5f2b7p-18 | MPI_Bcast[scatter_allgather]*3 0x1.e682d606a5ed2p-15";
    "flat p=3 allreduce: MPI_Allreduce[recursive_doubling]*3 0x0p+0 | MPI_Allreduce[recursive_doubling]*3 0x1.b48e7c29fe1d7p-18 | MPI_Allreduce[recursive_doubling]*3 0x1.33706aad3a38dp-17 | MPI_Allreduce[ring]*3 0x1.24f6601552c65p-14";
    "flat p=3 allgather: MPI_Allgather[bruck]*3 0x0p+0 | MPI_Allgather[bruck]*3 0x1.92d33210d137fp-18 | MPI_Allgather[bruck]*3 0x1.ea9d3696f3d79p-18 | MPI_Allgather[bruck]*3 0x1.79027188a72d9p-14";
    "flat p=3 alltoall: MPI_Alltoall[pairwise]*3 0x1.0c6f7a0b5ed8dp-18 | MPI_Alltoall[pairwise]*3 0x1.0c90764b310eep-18 | MPI_Alltoall[pairwise]*3 0x1.4e67f9afcb069p-18 | MPI_Alltoall[pairwise]*3 0x1.18a8f63266a48p-14";
    "flat p=5 bcast: MPI_Bcast[binomial]*5 0x0p+0 | MPI_Bcast[binomial]*5 0x1.b46c20122dcfdp-18 | MPI_Bcast[binomial]*5 0x1.111452dcec8bap-17 | MPI_Bcast[scatter_allgather]*5 0x1.5999bfd340e48p-14";
    "flat p=5 allreduce: MPI_Allreduce[recursive_doubling]*5 0x0p+0 | MPI_Allreduce[recursive_doubling]*5 0x1.2e382a9e79245p-17 | MPI_Allreduce[recursive_doubling]*5 0x1.a3800ca9ab656p-17 | MPI_Allreduce[ring]*5 0x1.8368a2d237a5cp-14";
    "flat p=5 allgather: MPI_Allgather[bruck]*5 0x0p+0 | MPI_Allgather[bruck]*5 0x1.2e29644c8da6cp-17 | MPI_Allgather[bruck]*5 0x1.85f368d2b0465p-17 | MPI_Allgather[bruck]*5 0x1.72b7d4ac62f4ap-13";
    "flat p=5 alltoall: MPI_Alltoall[pairwise]*5 0x1.92a737110e455p-18 | MPI_Alltoall[pairwise]*5 0x1.92de30d0c1f4dp-18 | MPI_Alltoall[pairwise]*5 0x1.004d5b3c369e1p-17 | MPI_Alltoall[pairwise]*5 0x1.d0f8710e8cbfep-14";
    "flat p=8 bcast: MPI_Bcast[binomial]*8 0x0p+0 | MPI_Bcast[binomial]*8 0x1.2e1e658c9ceap-17 | MPI_Bcast[binomial]*8 0x1.6ff5e8f136e1bp-17 | MPI_Bcast[scatter_allgather]*8 0x1.b1b13f89f7f5cp-14";
    "flat p=8 allreduce: MPI_Allreduce[recursive_doubling]*8 0x0p+0 | MPI_Allreduce[recursive_doubling]*8 0x1.2e382a9e79245p-17 | MPI_Allreduce[recursive_doubling]*8 0x1.a3800ca9ab656p-17 | MPI_Allreduce[rabenseifner]*8 0x1.804cdd4e884ccp-14";
    "flat p=8 allgather: MPI_Allgather[bruck]*8 0x0p+0 | MPI_Allgather[bruck]*8 0x1.2e4a608c5fdcdp-17 | MPI_Allgather[bruck]*8 0x1.c7ebe8771c741p-17 | MPI_Allgather[bruck]*8 0x1.3d4ce99f09d5cp-12";
    "flat p=8 alltoall: MPI_Alltoall[bruck]*8 0x0p+0 | MPI_Alltoall[pairwise]*8 0x1.2e29644c8da6cp-17 | MPI_Alltoall[pairwise]*8 0x1.85f368d2b0466p-17 | MPI_Alltoall[pairwise]*8 0x1.72b7d4ac62f4dp-13";
    "flat p=64 bcast: MPI_Bcast[binomial]*64 0x0p+0 | MPI_Bcast[binomial]*64 0x1.2e1e658c9cea1p-16 | MPI_Bcast[binomial]*64 0x1.6ff5e8f136e1ap-16 | MPI_Bcast[binomial]*64 0x1.1ac1d5267d625p-12";
    "flat p=64 allreduce: MPI_Allreduce[recursive_doubling]*64 0x0p+0 | MPI_Allreduce[recursive_doubling]*64 0x1.2e382a9e79246p-16 | MPI_Allreduce[recursive_doubling]*64 0x1.a3800ca9ab655p-16 | MPI_Allreduce[rabenseifner]*64 0x1.f265e80125ad9p-14";
    "flat p=64 allgather: MPI_Allgather[bruck]*64 0x0p+0 | MPI_Allgather[bruck]*64 0x1.2f57c1eae9ebep-16 | MPI_Allgather[bruck]*64 0x1.f15752c59d4a2p-15 | MPI_Allgather[bruck]*64 0x1.5cb498f1d1859p-9";
    "flat p=64 alltoall: MPI_Alltoall[bruck]*64 0x0p+0 | MPI_Alltoall[bruck]*64 0x1.321cf1471176cp-16 | MPI_Alltoall[pairwise]*64 0x1.6897377971e5bp-14 | MPI_Alltoall[pairwise]*64 0x1.70e21196cf0fcp-10";
    "two:4 p=1 bcast: MPI_Bcast[binomial]*1 0x0p+0 | MPI_Bcast[binomial]*1 0x0p+0 | MPI_Bcast[binomial]*1 0x0p+0 | MPI_Bcast[binomial]*1 0x0p+0";
    "two:4 p=1 allreduce: MPI_Allreduce[reduce_bcast]*1 0x0p+0 | MPI_Allreduce[reduce_bcast]*1 0x0p+0 | MPI_Allreduce[reduce_bcast]*1 0x0p+0 | MPI_Allreduce[reduce_bcast]*1 0x0p+0";
    "two:4 p=1 allgather: MPI_Allgather[bruck]*1 0x0p+0 | MPI_Allgather[bruck]*1 0x0p+0 | MPI_Allgather[bruck]*1 0x0p+0 | MPI_Allgather[bruck]*1 0x0p+0";
    "two:4 p=1 alltoall: MPI_Alltoall[bruck]*1 0x0p+0 | MPI_Alltoall[bruck]*1 0x0p+0 | MPI_Alltoall[bruck]*1 0x0p+0 | MPI_Alltoall[bruck]*1 0x0p+0";
    "two:4 p=2 bcast: MPI_Bcast[binomial]*2 0x0p+0 | MPI_Bcast[binomial]*2 0x1.78063e3605457p-21 | MPI_Bcast[binomial]*2 0x1.e5c2c3ddb08cdp-21 | MPI_Bcast[binomial]*2 0x1.cf4af1e4e0f51p-17";
    "two:4 p=2 allreduce: MPI_Allreduce[recursive_doubling]*2 0x0p+0 | MPI_Allreduce[recursive_doubling]*2 0x1.788fae95467c2p-21 | MPI_Allreduce[recursive_doubling]*2 0x1.7c51c1300efb1p-20 | MPI_Allreduce[recursive_doubling]*2 0x1.d7e1f7d8f4606p-17";
    "two:4 p=2 allgather: MPI_Allgather[bruck]*2 0x0p+0 | MPI_Allgather[bruck]*2 0x1.78063e3605457p-21 | MPI_Allgather[bruck]*2 0x1.e5c2c3ddb08cdp-21 | MPI_Allgather[bruck]*2 0x1.cf4af1e4e0f51p-17";
    "two:4 p=2 alltoall: MPI_Alltoall[pairwise]*2 0x1.77cf44765195fp-21 | MPI_Alltoall[pairwise]*2 0x1.78063e3605457p-21 | MPI_Alltoall[pairwise]*2 0x1.e5c2c3ddb08cdp-21 | MPI_Alltoall[pairwise]*2 0x1.cf4af1e4e0f51p-17";
    "two:4 p=3 bcast: MPI_Bcast[binomial]*3 0x0p+0 | MPI_Bcast[binomial]*3 0x1.e3818580d1da5p-21 | MPI_Bcast[binomial]*3 0x1.440e26fe2962cp-20 | MPI_Bcast[scatter_allgather]*3 0x1.24d9835d7ad7p-16";
    "two:4 p=3 allreduce: MPI_Allreduce[recursive_doubling]*3 0x0p+0 | MPI_Allreduce[recursive_doubling]*3 0x1.ae4d523aacc69p-20 | MPI_Allreduce[ring]*3 0x1.ca6f1f539f92ep-19 | MPI_Allreduce[ring]*3 0x1.604b70f6f606cp-16";
    "two:4 p=3 allgather: MPI_Allgather[bruck]*3 0x0p+0 | MPI_Allgather[bruck]*3 0x1.78063e3605457p-20 | MPI_Allgather[bruck]*3 0x1.e5c2c3ddb08cfp-20 | MPI_Allgather[bruck]*3 0x1.cf4af1e4e0f52p-16";
    "two:4 p=3 alltoall: MPI_Alltoall[pairwise]*3 0x1.27476ca61b882p-20 | MPI_Alltoall[pairwise]*3 0x1.2770a7f5e24bcp-20 | MPI_Alltoall[pairwise]*3 0x1.79be0c33a2c15p-20 | MPI_Alltoall[pairwise]*3 0x1.5c4ef5007e9d5p-16";
    "two:4 p=5 bcast: MPI_Bcast[node_leader]*5 0x0p+0 | MPI_Bcast[node_leader]*5 0x1.92d33210d137fp-19 | MPI_Bcast[node_leader]*5 0x1.ea9d3696f3d79p-19 | MPI_Bcast[node_leader]*5 0x1.9bc335e6691a8p-15";
    "two:4 p=5 allreduce: MPI_Allreduce[node_leader]*5 0x0p+0 | MPI_Allreduce[node_leader]*5 0x1.a0618775ffdd4p-18 | MPI_Allreduce[node_leader]*5 0x1.1e60afc276c4cp-17 | MPI_Allreduce[ring]*5 0x1.0069dffe0f077p-14";
    "two:4 p=5 allgather: MPI_Allgather[bruck]*5 0x0p+0 | MPI_Allgather[bruck]*5 0x1.c1e9f757735a1p-18 | MPI_Allgather[bruck]*5 0x1.29a8476ace593p-17 | MPI_Allgather[bruck]*5 0x1.316be76887388p-13";
    "two:4 p=5 alltoall: MPI_Alltoall[hypergrid]*5 0x0p+0 | MPI_Alltoall[hypergrid]*5 0x1.5661a188b8e53p-18 | MPI_Alltoall[hypergrid]*5 0x1.9bf0e8b429aadp-18 | MPI_Alltoall[hypergrid]*5 0x1.caadd4324886dp-14";
    "two:4 p=8 bcast: MPI_Bcast[node_leader]*8 0x0p+0 | MPI_Bcast[node_leader]*8 0x1.276b2895e9ed4p-18 | MPI_Bcast[node_leader]*8 0x1.6ebf4c42e60efp-18 | MPI_Bcast[node_leader]*8 0x1.3053f53d8bd41p-14";
    "two:4 p=8 allreduce: MPI_Allreduce[node_leader]*8 0x0p+0 | MPI_Allreduce[node_leader]*8 0x1.85a0424723b3p-18 | MPI_Allreduce[node_leader]*8 0x1.27a222559d9ccp-17 | MPI_Allreduce[rabenseifner]*8 0x1.48962317df263p-15";
    "two:4 p=8 allgather: MPI_Allgather[bruck]*8 0x0p+0 | MPI_Allgather[bruck]*8 0x1.c22befd717c65p-18 | MPI_Allgather[bruck]*8 0x1.6ba0c70f3a86fp-17 | MPI_Allgather[bruck]*8 0x1.24b0530c74041p-12";
    "two:4 p=8 alltoall: MPI_Alltoall[hypergrid]*8 0x0p+0 | MPI_Alltoall[hypergrid]*8 0x1.56a5a9cc5a74bp-18 | MPI_Alltoall[hypergrid]*8 0x1.0f75420f2cb85p-17 | MPI_Alltoall[pairwise]*8 0x1.143bc70c8bad2p-13";
    "two:4 p=64 bcast: MPI_Bcast[node_leader]*64 0x0p+0 | MPI_Bcast[node_leader]*64 0x1.c1d3f9d791e0dp-17 | MPI_Bcast[node_leader]*64 0x1.13aac78954f4cp-16 | MPI_Bcast[node_leader]*64 0x1.b2ebcfc5434c7p-13";
    "two:4 p=64 allreduce: MPI_Allreduce[node_leader]*64 0x0p+0 | MPI_Allreduce[node_leader]*64 0x1.f1084bc20afe2p-17 | MPI_Allreduce[node_leader]*64 0x1.6591177fa4815p-16 | MPI_Allreduce[rabenseifner]*64 0x1.16641c3e8cf3fp-14";
    "two:4 p=64 allgather: MPI_Allgather[bruck]*64 0x0p+0 | MPI_Allgather[bruck]*64 0x1.08bd8d9a7fefp-16 | MPI_Allgather[bruck]*64 0x1.da448a6ba4cedp-15 | MPI_Allgather[bruck]*64 0x1.59a1061f7ecb5p-9";
    "two:4 p=64 alltoall: MPI_Alltoall[hypergrid]*64 0x0p+0 | MPI_Alltoall[hypergrid]*64 0x1.10fcf5850cfacp-16 | MPI_Alltoall[hypergrid]*64 0x1.ba626285e721p-15 | MPI_Alltoall[hypergrid]*64 0x1.349cbb474956ep-9";
    "fat:2:2:1 p=1 bcast: MPI_Bcast[binomial]*1 0x0p+0 | MPI_Bcast[binomial]*1 0x0p+0 | MPI_Bcast[binomial]*1 0x0p+0 | MPI_Bcast[binomial]*1 0x0p+0";
    "fat:2:2:1 p=1 allreduce: MPI_Allreduce[reduce_bcast]*1 0x0p+0 | MPI_Allreduce[reduce_bcast]*1 0x0p+0 | MPI_Allreduce[reduce_bcast]*1 0x0p+0 | MPI_Allreduce[reduce_bcast]*1 0x0p+0";
    "fat:2:2:1 p=1 allgather: MPI_Allgather[bruck]*1 0x0p+0 | MPI_Allgather[bruck]*1 0x0p+0 | MPI_Allgather[bruck]*1 0x0p+0 | MPI_Allgather[bruck]*1 0x0p+0";
    "fat:2:2:1 p=1 alltoall: MPI_Alltoall[bruck]*1 0x0p+0 | MPI_Alltoall[bruck]*1 0x0p+0 | MPI_Alltoall[bruck]*1 0x0p+0 | MPI_Alltoall[bruck]*1 0x0p+0";
    "fat:2:2:1 p=2 bcast: MPI_Bcast[binomial]*2 0x0p+0 | MPI_Bcast[binomial]*2 0x1.78063e3605457p-21 | MPI_Bcast[binomial]*2 0x1.e5c2c3ddb08cdp-21 | MPI_Bcast[binomial]*2 0x1.cf4af1e4e0f51p-17";
    "fat:2:2:1 p=2 allreduce: MPI_Allreduce[recursive_doubling]*2 0x0p+0 | MPI_Allreduce[recursive_doubling]*2 0x1.788fae95467c2p-21 | MPI_Allreduce[recursive_doubling]*2 0x1.7c51c1300efb1p-20 | MPI_Allreduce[recursive_doubling]*2 0x1.d7e1f7d8f4606p-17";
    "fat:2:2:1 p=2 allgather: MPI_Allgather[bruck]*2 0x0p+0 | MPI_Allgather[bruck]*2 0x1.78063e3605457p-21 | MPI_Allgather[bruck]*2 0x1.e5c2c3ddb08cdp-21 | MPI_Allgather[bruck]*2 0x1.cf4af1e4e0f51p-17";
    "fat:2:2:1 p=2 alltoall: MPI_Alltoall[pairwise]*2 0x1.77cf44765195fp-21 | MPI_Alltoall[pairwise]*2 0x1.78063e3605457p-21 | MPI_Alltoall[pairwise]*2 0x1.e5c2c3ddb08cdp-21 | MPI_Alltoall[pairwise]*2 0x1.cf4af1e4e0f51p-17";
    "fat:2:2:1 p=3 bcast: MPI_Bcast[node_leader]*3 0x0p+0 | MPI_Bcast[node_leader]*3 0x1.e3defae0501e3p-21 | MPI_Bcast[node_leader]*3 0x1.a183867c6d4e2p-20 | MPI_Bcast[node_leader]*3 0x1.6764ba531b5a9p-15";
    "fat:2:2:1 p=3 allreduce: MPI_Allreduce[node_leader]*3 0x0p+0 | MPI_Allreduce[node_leader]*3 0x1.ae7c0cea6be89p-20 | MPI_Allreduce[node_leader]*3 0x1.d3a2d376d97efp-19 | MPI_Allreduce[ring]*3 0x1.9c5abcab96c2fp-15";
    "fat:2:2:1 p=3 allgather: MPI_Allgather[bruck]*3 0x0p+0 | MPI_Allgather[bruck]*3 0x1.e3defae0501e4p-20 | MPI_Allgather[bruck]*3 0x1.a183867c6d4e2p-19 | MPI_Allgather[bruck]*3 0x1.6764ba531b5a9p-14";
    "fat:2:2:1 p=3 alltoall: MPI_Alltoall[hypergrid]*3 0x0p+0 | MPI_Alltoall[hypergrid]*3 0x1.5d89014acaaaep-20 | MPI_Alltoall[hypergrid]*3 0x1.402b18238eadcp-19 | MPI_Alltoall[hypergrid]*3 0x1.28d2bbb2f6c85p-14";
    "fat:2:2:1 p=5 bcast: MPI_Bcast[node_leader]*5 0x0p+0 | MPI_Bcast[node_leader]*5 0x1.92d33210d137fp-19 | MPI_Bcast[node_leader]*5 0x1.ea9d3696f3d79p-19 | MPI_Bcast[scatter_allgather]*5 0x1.038e6882b236cp-14";
    "fat:2:2:1 p=5 allreduce: MPI_Allreduce[node_leader]*5 0x0p+0 | MPI_Allreduce[node_leader]*5 0x1.a0618775ffdd4p-18 | MPI_Allreduce[node_leader]*5 0x1.1e60afc276c4cp-17 | MPI_Allreduce[ring]*5 0x1.19d1d470ca8b4p-14";
    "fat:2:2:1 p=5 allgather: MPI_Allgather[bruck]*5 0x0p+0 | MPI_Allgather[bruck]*5 0x1.cf6bee24b32b3p-18 | MPI_Allgather[bruck]*5 0x1.465bc3f2f6e9ap-17 | MPI_Allgather[bruck]*5 0x1.99e006d787d65p-13";
    "fat:2:2:1 p=5 alltoall: MPI_Alltoall[hypergrid]*5 0x0p+0 | MPI_Alltoall[hypergrid]*5 0x1.7169aeab32ce1p-18 | MPI_Alltoall[hypergrid]*5 0x1.08f37f78350cdp-17 | MPI_Alltoall[hypergrid]*5 0x1.593529434c865p-13";
    "fat:2:2:1 p=8 bcast: MPI_Bcast[node_leader]*8 0x0p+0 | MPI_Bcast[node_leader]*8 0x1.34e6402b33485p-18 | MPI_Bcast[node_leader]*8 0x1.9a67d5664b50ep-18 | MPI_Bcast[scatter_allgather]*8 0x1.3435204f29289p-14";
    "fat:2:2:1 p=8 allreduce: MPI_Allreduce[node_leader]*8 0x0p+0 | MPI_Allreduce[node_leader]*8 0x1.641a9215ac659p-18 | MPI_Allreduce[node_leader]*8 0x1.1f1a3aa97534fp-17 | MPI_Allreduce[rabenseifner]*8 0x1.f53e293232c01p-15";
    "fat:2:2:1 p=8 allgather: MPI_Allgather[bruck]*8 0x0p+0 | MPI_Allgather[bruck]*8 0x1.e3e5da1846945p-18 | MPI_Allgather[bruck]*8 0x1.a862be72e33dbp-17 | MPI_Allgather[bruck]*8 0x1.7d2c8a4f5f45dp-12";
    "fat:2:2:1 p=8 alltoall: MPI_Alltoall[hypergrid]*8 0x0p+0 | MPI_Alltoall[hypergrid]*8 0x1.a77e98641ff23p-18 | MPI_Alltoall[hypergrid]*8 0x1.88cff586b7623p-17 | MPI_Alltoall[pairwise]*8 0x1.2e4979a6a11d7p-12";
    "fat:2:2:1 p=64 bcast: MPI_Bcast[node_leader]*64 0x0p+0 | MPI_Bcast[node_leader]*64 0x1.c89185a2368e6p-17 | MPI_Bcast[node_leader]*64 0x1.1e94e9d22e453p-16 | MPI_Bcast[node_leader]*64 0x1.efd04f3bbc13dp-13";
    "fat:2:2:1 p=64 allreduce: MPI_Allreduce[node_leader]*64 0x0p+0 | MPI_Allreduce[node_leader]*64 0x1.e04573a94f575p-17 | MPI_Allreduce[node_leader]*64 0x1.614d23a9904d5p-16 | MPI_Allreduce[rabenseifner]*64 0x1.7657073e5bddp-14";
    "fat:2:2:1 p=64 allgather: MPI_Allgather[bruck]*64 0x0p+0 | MPI_Allgather[bruck]*64 0x1.1178ff6a60cb6p-16 | MPI_Allgather[bruck]*64 0x1.1b3623ecdbee4p-14 | MPI_Allgather[bruck]*64 0x1.b1a7cc9d05139p-9";
    "fat:2:2:1 p=64 alltoall: MPI_Alltoall[hypergrid]*64 0x0p+0 | MPI_Alltoall[hypergrid]*64 0x1.64586b0d568b1p-16 | MPI_Alltoall[hypergrid]*64 0x1.84e26bdd2b393p-14 | MPI_Alltoall[hypergrid]*64 0x1.31120a3067f71p-8";
    "scattered2 p=1 bcast: MPI_Bcast[binomial]*1 0x0p+0 | MPI_Bcast[binomial]*1 0x0p+0 | MPI_Bcast[binomial]*1 0x0p+0 | MPI_Bcast[binomial]*1 0x0p+0";
    "scattered2 p=1 allreduce: MPI_Allreduce[reduce_bcast]*1 0x0p+0 | MPI_Allreduce[reduce_bcast]*1 0x0p+0 | MPI_Allreduce[reduce_bcast]*1 0x0p+0 | MPI_Allreduce[reduce_bcast]*1 0x0p+0";
    "scattered2 p=1 allgather: MPI_Allgather[bruck]*1 0x0p+0 | MPI_Allgather[bruck]*1 0x0p+0 | MPI_Allgather[bruck]*1 0x0p+0 | MPI_Allgather[bruck]*1 0x0p+0";
    "scattered2 p=1 alltoall: MPI_Alltoall[bruck]*1 0x0p+0 | MPI_Alltoall[bruck]*1 0x0p+0 | MPI_Alltoall[bruck]*1 0x0p+0 | MPI_Alltoall[bruck]*1 0x0p+0";
    "scattered2 p=2 bcast: MPI_Bcast[binomial]*2 0x0p+0 | MPI_Bcast[binomial]*2 0x1.78063e3605457p-21 | MPI_Bcast[binomial]*2 0x1.e5c2c3ddb08cdp-21 | MPI_Bcast[binomial]*2 0x1.cf4af1e4e0f51p-17";
    "scattered2 p=2 allreduce: MPI_Allreduce[recursive_doubling]*2 0x0p+0 | MPI_Allreduce[recursive_doubling]*2 0x1.788fae95467c2p-21 | MPI_Allreduce[recursive_doubling]*2 0x1.7c51c1300efb1p-20 | MPI_Allreduce[recursive_doubling]*2 0x1.d7e1f7d8f4606p-17";
    "scattered2 p=2 allgather: MPI_Allgather[bruck]*2 0x0p+0 | MPI_Allgather[bruck]*2 0x1.78063e3605457p-21 | MPI_Allgather[bruck]*2 0x1.e5c2c3ddb08cdp-21 | MPI_Allgather[bruck]*2 0x1.cf4af1e4e0f51p-17";
    "scattered2 p=2 alltoall: MPI_Alltoall[pairwise]*2 0x1.77cf44765195fp-21 | MPI_Alltoall[pairwise]*2 0x1.78063e3605457p-21 | MPI_Alltoall[pairwise]*2 0x1.e5c2c3ddb08cdp-21 | MPI_Alltoall[pairwise]*2 0x1.cf4af1e4e0f51p-17";
    "scattered2 p=3 bcast: MPI_Bcast[node_leader]*3 0x0p+0 | MPI_Bcast[node_leader]*3 0x1.92d33210d137fp-19 | MPI_Bcast[node_leader]*3 0x1.ea9d3696f3d79p-19 | MPI_Bcast[node_leader]*3 0x1.79027188a72dap-15";
    "scattered2 p=3 allreduce: MPI_Allreduce[node_leader]*3 0x0p+0 | MPI_Allreduce[node_leader]*3 0x1.f11979cdf324bp-19 | MPI_Allreduce[node_leader]*3 0x1.76bf2367cb57cp-18 | MPI_Allreduce[ring]*3 0x1.d133e24c3a3c2p-15";
    "scattered2 p=3 allgather: MPI_Allgather[bruck]*3 0x0p+0 | MPI_Allgather[bruck]*3 0x1.92d33210d137fp-18 | MPI_Allgather[bruck]*3 0x1.ea9d3696f3d79p-18 | MPI_Allgather[bruck]*3 0x1.79027188a72d9p-14";
    "scattered2 p=3 alltoall: MPI_Alltoall[hypergrid]*3 0x0p+0 | MPI_Alltoall[hypergrid]*3 0x1.f0cde2665c136p-19 | MPI_Alltoall[hypergrid]*3 0x1.2cda0a6e5f2b7p-18 | MPI_Alltoall[hypergrid]*3 0x1.1690173e4fe6dp-14";
    "scattered2 p=5 bcast: MPI_Bcast[node_leader]*5 0x0p+0 | MPI_Bcast[node_leader]*5 0x1.1a034ed085dc7p-18 | MPI_Bcast[node_leader]*5 0x1.699262ea153dp-18 | MPI_Bcast[scatter_allgather]*5 0x1.5999bfd340e48p-14";
    "scattered2 p=5 allreduce: MPI_Allreduce[node_leader]*5 0x0p+0 | MPI_Allreduce[node_leader]*5 0x1.09509ce1b3cadp-17 | MPI_Allreduce[node_leader]*5 0x1.8156cf111721p-17 | MPI_Allreduce[ring]*5 0x1.8368a2d237a5cp-14";
    "scattered2 p=5 allgather: MPI_Allgather[bruck]*5 0x0p+0 | MPI_Allgather[bruck]*5 0x1.2e29644c8da6cp-17 | MPI_Allgather[bruck]*5 0x1.85f368d2b0465p-17 | MPI_Allgather[bruck]*5 0x1.72b7d4ac62f4ap-13";
    "scattered2 p=5 alltoall: MPI_Alltoall[hypergrid]*5 0x0p+0 | MPI_Alltoall[hypergrid]*5 0x1.6a92b5c4b16c2p-18 | MPI_Alltoall[hypergrid]*5 0x1.c93882a54ec01p-18 | MPI_Alltoall[hypergrid]*5 0x1.ccc6b3265f448p-14";
    "scattered2 p=8 bcast: MPI_Bcast[node_leader]*8 0x0p+0 | MPI_Bcast[node_leader]*8 0x1.c1d3f9d791e08p-18 | MPI_Bcast[node_leader]*8 0x1.13aac78954f49p-17 | MPI_Bcast[scatter_allgather]*8 0x1.b1b13f89f7f5cp-14";
    "scattered2 p=8 allreduce: MPI_Allreduce[node_leader]*8 0x0p+0 | MPI_Allreduce[node_leader]*8 0x1.f1084bc20afdbp-18 | MPI_Allreduce[node_leader]*8 0x1.6591177fa4812p-17 | MPI_Allreduce[rabenseifner]*8 0x1.804cdd4e884ccp-14";
    "scattered2 p=8 allgather: MPI_Allgather[bruck]*8 0x0p+0 | MPI_Allgather[bruck]*8 0x1.2e4a608c5fdcdp-17 | MPI_Allgather[bruck]*8 0x1.c7ebe8771c741p-17 | MPI_Allgather[bruck]*8 0x1.3d4ce99f09d5cp-12";
    "scattered2 p=8 alltoall: MPI_Alltoall[hypergrid]*8 0x0p+0 | MPI_Alltoall[hypergrid]*8 0x1.0cc7700ae4be7p-17 | MPI_Alltoall[hypergrid]*8 0x1.bc5b791729fd8p-17 | MPI_Alltoall[pairwise]*8 0x1.533925771b324p-13";
    "scattered2 p=64 bcast: MPI_Bcast[node_leader]*64 0x0p+0 | MPI_Bcast[node_leader]*64 0x1.0784313c32ed4p-16 | MPI_Bcast[node_leader]*64 0x1.41d0583d45eb4p-16 | MPI_Bcast[node_leader]*64 0x1.f437bd091f089p-13";
    "scattered2 p=64 allreduce: MPI_Allreduce[node_leader]*64 0x0p+0 | MPI_Allreduce[node_leader]*64 0x1.135e283fbf51cp-16 | MPI_Allreduce[node_leader]*64 0x1.84889214a7f36p-16 | MPI_Allreduce[rabenseifner]*64 0x1.f265e80125ad9p-14";
    "scattered2 p=64 allgather: MPI_Allgather[bruck]*64 0x0p+0 | MPI_Allgather[bruck]*64 0x1.2f57c1eae9ebep-16 | MPI_Allgather[bruck]*64 0x1.f15752c59d4a2p-15 | MPI_Allgather[bruck]*64 0x1.5cb498f1d1859p-9";
    "scattered2 p=64 alltoall: MPI_Alltoall[hypergrid]*64 0x0p+0 | MPI_Alltoall[hypergrid]*64 0x1.2f5d414ae24a4p-16 | MPI_Alltoall[hypergrid]*64 0x1.f6d6b2bdfba2ep-15 | MPI_Alltoall[hypergrid]*64 0x1.6233f8ea2fdeep-9";
  ]

let test_pins () =
  let got = isolated lines in
  Alcotest.(check int) "line count" (List.length expected) (List.length got);
  List.iter2 (fun e g -> Alcotest.(check string) "pin" e g) expected got

let suite = [ Alcotest.test_case "selection and timing pins" `Quick test_pins ]
