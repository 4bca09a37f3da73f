"""DSOC: the Distributed System Object Component programming model.

Section 7.2 of the paper: "We have developed a lightweight Distributed
System Object Component (DSOC) programming model inspired by CORBA-like
concepts.  DSOC objects can be executed on a variety of processors ...
as well as on hardware or on the eFPGA.  Using the DSOC methodology,
the application design is largely decoupled from the details of a
particular FPPA target mapping."

The implementation mirrors a lightweight ORB:

* :mod:`repro.dsoc.idl` — interface definitions (methods, parameter
  types, oneway flags);
* :mod:`repro.dsoc.marshal` — a compact binary wire format (the flit
  count of each request derives from the real encoded size);
* :mod:`repro.dsoc.objects` — servant base class; implementations are
  generator methods that interleave compute segments and split
  transactions;
* :mod:`repro.dsoc.broker` — the object request broker: registry,
  binding, replica selection policies;
* :mod:`repro.dsoc.runtime` — deployment of servants onto platform PEs
  and the client/server message plumbing over the NoC.
"""
