let dispatch = Experiment.run
