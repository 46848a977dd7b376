type event = {
  vref : Ids.volume_ref;
  fidpath : Ids.file_id list;
  fid : Ids.file_id;
  kind : Aux_attrs.fkind;
  origin_rid : Ids.replica_id;
  origin_host : string;
  span : int;
  vv : Version_vector.t;
}

type Sim_net.payload += Ficus_notify of event
type Sim_net.payload += Ficus_reconciled of event
